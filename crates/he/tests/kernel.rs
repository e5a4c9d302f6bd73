//! Which kernel Paillier's batched exponentiations run on, printed so a
//! CI log says which path its matrix checked — and a dispatch that never
//! engages the lanes on a CPU that has them fails here instead of passing
//! silently on the scalar fallback.
//!
//! The CPU's flags are read from `/proc/cpuinfo`, not from the detection
//! the dispatcher itself uses: the two are independent readings of CPUID.

/// The first `flags` line of `/proc/cpuinfo`, split; `None` where there is
/// no such file (a non-Linux host).
fn cpu_flags() -> Option<Vec<String>> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("flags"))?;
    let (_, flags) = line.split_once(':')?;
    Some(flags.split_whitespace().map(str::to_owned).collect())
}

#[test]
fn the_lanes_run_wherever_cpuid_reports_them() {
    let kernel = vfps_he::paillier::kernel_name();
    println!("paillier kernel: {kernel}");
    assert!(kernel == "ifma8" || kernel == "scalar", "unknown kernel {kernel}");
    let Some(flags) = cpu_flags() else {
        println!("no /proc/cpuinfo: the dispatch is not cross-checked");
        return;
    };
    let has = |flag: &str| flags.iter().any(|f| f == flag);
    let ifma = cfg!(target_arch = "x86_64") && has("avx512f") && has("avx512ifma");
    if ifma {
        assert_eq!(
            kernel, "ifma8",
            "CPUID reports avx512f and avx512ifma, the dispatcher picked {kernel}"
        );
    } else {
        assert_eq!(kernel, "scalar", "the lanes were picked without avx512f and avx512ifma");
    }
}
