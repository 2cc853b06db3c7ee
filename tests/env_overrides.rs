//! `NM_SPMM_ISA` is the one environment pin, pinned end to end:
//!
//! 0. **Explicit beats environment beats default** — a
//!    `SessionBuilder::micro_kernel` call wins over `NM_SPMM_ISA`, even a
//!    malformed one; with the builder silent the variable decides; unset,
//!    native dispatch.
//! 1. **Names** — every ISA name, in any ASCII case, selects that ISA, or
//!    is `Unsupported` exactly when this host cannot run it.
//! 2. **Native** — unset, empty and `native` select native dispatch and
//!    do not count as a pin.
//! 3. **Strict validation** — anything else is `InvalidConfig` naming the
//!    variable and the value, never a silent fallback.
//! 4. **No other pin** — the retired storage, autotune and force-scalar
//!    variables change and fail nothing.
//!
//! Environment variables are process-global, so every claim lives in
//! ONE `#[test]` — the test binary is its own process, and a single
//! function cannot race itself.

use nm_spmm::kernels::{AutotuneMode, Isa, MicroKernel, SessionBuilder};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;

const ISA_ENV: &str = "NM_SPMM_ISA";

/// Set a variable for one scope; restore "unset" on drop even when an
/// assertion inside the scope panics.
struct EnvGuard(String);

impl EnvGuard {
    fn set(name: &str, value: &str) -> Self {
        std::env::set_var(name, value);
        EnvGuard(name.to_string())
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        std::env::remove_var(&self.0);
    }
}

/// A small 2:8 layer for one session load.
fn weights(seed: u64) -> NmSparseMatrix {
    let cfg = NmConfig::new(2, 8, 8).unwrap();
    NmSparseMatrix::prune_magnitude(&MatrixF32::random(64, 32, seed), cfg).unwrap()
}

#[test]
fn explicit_builder_calls_beat_env_vars_beat_defaults_and_typos_fail_loudly() {
    let retired = ["STORAGE", "AUTOTUNE", "FORCE_SCALAR"].map(|p| format!("NM_SPMM_{p}"));
    for var in retired.iter().map(String::as_str).chain([ISA_ENV]) {
        assert!(
            std::env::var_os(var).is_none(),
            "{var} must be unset when this test starts"
        );
    }
    let native = MicroKernel::native();
    assert_eq!(MicroKernel::select().unwrap(), native);
    assert!(!MicroKernel::env_pins_isa());

    // --- Every ISA name, lower and upper case. ---
    for isa in Isa::ALL {
        for value in [isa.name().to_string(), isa.name().to_uppercase()] {
            let _g = EnvGuard::set(ISA_ENV, &value);
            assert!(MicroKernel::env_pins_isa(), "`{value}` pins");
            match MicroKernel::select() {
                Ok(mk) => {
                    assert!(isa.supported(), "`{value}` selected a foreign ISA");
                    assert_eq!(mk.isa(), isa, "`{value}`");
                }
                Err(NmError::Unsupported { .. }) => {
                    assert!(!isa.supported(), "`{value}` runs here")
                }
                Err(e) => panic!("`{value}` must be Ok or Unsupported, got {e:?}"),
            }
        }
    }

    // --- Spelled-out native dispatch is not a pin. ---
    for value in ["native", "NATIVE", ""] {
        let _g = EnvGuard::set(ISA_ENV, value);
        assert_eq!(MicroKernel::select().unwrap(), native, "`{value}`");
        assert!(!MicroKernel::env_pins_isa(), "`{value}` is no pin");
    }

    // --- Malformed values: InvalidConfig naming the variable and value. ---
    for value in [
        " avx2", "avx2 ", "avx", "avx51", "avx5122", "sse9", "1", "true",
    ] {
        let _g = EnvGuard::set(ISA_ENV, value);
        assert!(MicroKernel::env_pins_isa(), "`{value}` is set, so it pins");
        match MicroKernel::select() {
            Err(NmError::InvalidConfig { reason }) => assert!(
                reason.contains(&format!("{ISA_ENV}=`{value}`")),
                "`{value}`: {reason}"
            ),
            other => panic!("`{value}` must be an InvalidConfig, got {other:?}"),
        }
        // The session reaches the pin on its first load.
        let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
        let err = session.load(weights(1), 4).unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
        // The printed error is about configuration, not the N:M pattern.
        let text = err.to_string();
        assert!(text.starts_with("invalid configuration: "), "{text}");
        assert!(!text.contains("N:M"), "{text}");
    }

    // --- The scalar pin reaches every loaded layer; an explicit
    // micro-kernel on the builder beats it. ---
    {
        let _g = EnvGuard::set(ISA_ENV, "scalar");
        let mut session = SessionBuilder::new(a100_80g()).build().unwrap();
        assert_eq!(session.load(weights(2), 4).unwrap().isa(), Isa::Scalar);
        let mut explicit = SessionBuilder::new(a100_80g())
            .micro_kernel(native)
            .build()
            .unwrap();
        assert_eq!(explicit.load(weights(2), 4).unwrap().isa(), native.isa());
    }

    // --- The explicit micro-kernel is not read from the environment, so
    // even a malformed pin cannot fail it. ---
    {
        let _g = EnvGuard::set(ISA_ENV, "avx51");
        let mut explicit = SessionBuilder::new(a100_80g())
            .micro_kernel(MicroKernel::scalar())
            .build()
            .unwrap();
        let layer = explicit
            .load(weights(4), 4)
            .expect("explicit beats the env var");
        assert_eq!(layer.isa(), Isa::Scalar);
    }

    // --- The retired pins change and fail nothing. ---
    {
        let _guards: Vec<EnvGuard> = retired.iter().map(|v| EnvGuard::set(v, "junk")).collect();
        let mut session = SessionBuilder::new(a100_80g())
            .build()
            .expect("retired variables are not read");
        assert_eq!(session.autotune(), AutotuneMode::Off);
        let layer = session.load(weights(3), 64).unwrap();
        assert_eq!(layer.storage(), Some(StorageFormat::RowMajor));
        assert!(layer.plan().measured.is_none(), "nothing was measured");
        assert_eq!(layer.isa(), native.isa());
        assert_eq!(MicroKernel::select().unwrap(), native);
        assert!(!MicroKernel::env_pins_isa());
    }

    // --- Every guard dropped: native dispatch is back. ---
    assert_eq!(MicroKernel::select().unwrap(), native);
    assert!(!MicroKernel::env_pins_isa());
}
