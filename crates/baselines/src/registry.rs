//! Registers the comparison baselines into an
//! [`AlgorithmRegistry`].
//!
//! `rr-renaming` owns the registry type and registers the paper's
//! protocols; this crate contributes the baselines so the dependency
//! graph stays acyclic (baselines depend on the algorithm trait, never
//! the other way around). Drivers compose both with two calls.

use crate::uniform::MAX_EPSILON;
use crate::{
    BitonicRenaming, FetchAddRenaming, LinearScan, RouteRenaming, ScanStart, SplitterGrid,
    UniformProbing,
};
use rr_renaming::AlgorithmRegistry;

/// Adds the baseline algorithms:
///
/// | name | parameters | algorithm |
/// |---|---|---|
/// | `bitonic` | — | comparator-network renaming \[7\] |
/// | `fetch-add` | — | ideal fetch-and-increment counter |
/// | `uniform` | `eps` (default 1.0) | uniform probing into `(1+ε)n` |
/// | `linear-scan` | `start` = `zero`\|`pid` (default `zero`) | deterministic Θ(n) scan |
/// | `splitter-grid` | — | Moir–Anderson grid (size-capped: Θ(n²) registers) |
/// | `route` | `net` = `benes`\|`butterfly`\|`variant` (default `benes`), `stages` ≥ 1 (default closed form) | topology-routed switching network |
pub fn register_baselines(reg: &mut AlgorithmRegistry) {
    reg.register("bitonic", "comparator-network renaming [7]", "bitonic", |k| {
        k.check_known(&[])?;
        Ok(Box::new(BitonicRenaming))
    });
    reg.register("fetch-add", "ideal fetch-and-increment counter", "fetch-add", |k| {
        k.check_known(&[])?;
        Ok(Box::new(FetchAddRenaming))
    });
    reg.register("uniform", "uniform probing into (1+eps)n names", "uniform:eps=1", |k| {
        k.check_known(&["eps"])?;
        let epsilon: f64 = k.get("eps", 1.0)?;
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(format!("uniform probing needs eps > 0, got {epsilon}"));
        }
        if epsilon > MAX_EPSILON {
            return Err(format!("parameter `eps` of `uniform` must be ≤ {MAX_EPSILON}"));
        }
        Ok(Box::new(UniformProbing { epsilon }))
    });
    reg.register("linear-scan", "deterministic Θ(n) scan", "linear-scan:start=zero", |k| {
        k.check_known(&["start"])?;
        let start = match k.get("start", "zero".to_string())?.as_str() {
            "zero" => ScanStart::Zero,
            "pid" => ScanStart::OwnPid,
            other => return Err(format!("linear-scan start must be zero|pid, got `{other}`")),
        };
        Ok(Box::new(LinearScan { start }))
    });
    reg.register(
        "route",
        "switching-network renaming: route:net=benes | route:net=butterfly | route:net=variant",
        "route:net=benes",
        |k| Ok(Box::new(RouteRenaming::from_key(k)?)),
    );
    reg.register_sized(
        "splitter-grid",
        "Moir–Anderson read/write grid (n(n+1)/2 cells, 4 B + 1 bit each)",
        "splitter-grid",
        1,
        Some(1 << 12),
        |k| {
            k.check_known(&[])?;
            Ok(Box::new(SplitterGrid))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> AlgorithmRegistry {
        let mut reg = AlgorithmRegistry::with_paper_algorithms();
        register_baselines(&mut reg);
        reg
    }

    #[test]
    fn baseline_keys_build_with_expected_names() {
        let reg = full();
        for (key, name) in [
            ("bitonic", "bitonic-network"),
            ("fetch-add", "fetch-add"),
            ("uniform", "uniform(eps=1)"),
            ("uniform:eps=0.5", "uniform(eps=0.5)"),
            ("linear-scan", "linear-scan(0)"),
            ("linear-scan:start=pid", "linear-scan(pid)"),
            ("splitter-grid", "splitter-grid"),
            ("route", "route(benes)"),
            ("route:net=butterfly", "route(butterfly)"),
            ("route:net=variant,stages=9", "route(variant,stages=9)"),
        ] {
            let built = reg.build(key).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(
                built.name().starts_with(name.split('(').next().unwrap()),
                "{key} -> {}",
                built.name()
            );
        }
    }

    #[test]
    fn grid_is_capped_others_not() {
        let reg = full();
        assert_eq!(reg.n_cap("splitter-grid"), Some(1 << 12));
        assert_eq!(reg.n_cap("bitonic"), None);
        assert_eq!(reg.n_cap("tight-tau:c=4"), None);
    }

    #[test]
    fn bad_baseline_params_error() {
        let reg = full();
        assert!(reg.build("uniform:eps=0").is_err());
        assert!(reg.build("uniform:eps=-1").is_err());
        assert!(reg.build("uniform:eps=1024").is_ok());
        assert!(reg.build("uniform:eps=1025").is_err());
        assert!(reg.build("linear-scan:start=middle").is_err());
        assert!(reg.build("bitonic:w=2").is_err());
        assert_eq!(
            reg.build("route:net=omega").err().unwrap(),
            "route net must be benes|butterfly|variant, got `omega`"
        );
        assert_eq!(reg.build("route:stages=0").err().unwrap(), "route stages must be >= 1, got 0");
        assert_eq!(
            reg.build("route:stages=x").err().unwrap(),
            "parameter `stages=x` of `route` is invalid"
        );
        assert!(reg.build("route:depth=3").is_err());
    }

    #[test]
    fn paper_and_baseline_sets_compose() {
        let reg = full();
        assert!(reg.keys().len() >= 14);
        assert!(reg.keys().contains(&"tight-tau"));
        assert!(reg.keys().contains(&"splitter-grid"));
        assert!(reg.keys().contains(&"route"));
    }
}
