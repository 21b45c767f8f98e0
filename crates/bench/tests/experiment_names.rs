//! A name `repro` does not know exits 2 and lists the valid ones,
//! instead of printing the header and exiting 0 having run nothing.

#[test]
fn unknown_experiment_names_exit_2_with_the_valid_list() {
    for bad in ["simspeed", "fgi4"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([bad, "--quick"])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`repro {bad}`: {stderr}");
        for named in [bad, "serve", "fig4", "table2", "latency", "profile", "xvalidate", "all"] {
            assert!(stderr.contains(named), "stderr must name {named}: {stderr}");
        }
    }
}
