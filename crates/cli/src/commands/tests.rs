use super::*;
use fastbuf_api::wire::Json;

#[test]
fn dispatch_rejects_unknown() {
    let argv: Vec<String> = vec!["frobnicate".into()];
    assert!(run(&argv).is_err());
    let argv: Vec<String> = vec!["gen".into(), "nothing".into()];
    assert!(run(&argv).is_err());
}

#[test]
fn help_is_ok() {
    assert!(run(&["--help".to_string()]).is_ok());
    assert!(run(&[]).is_ok());
}

#[test]
fn end_to_end_via_tempdir() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let net = dir.join("t.net");
    let lib = dir.join("t.lib");

    let argv: Vec<String> = [
        "gen",
        "net",
        "--kind",
        "line",
        "--length",
        "8000",
        "--sites",
        "7",
        "-o",
        net.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();

    let argv: Vec<String> = ["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    run(&argv).unwrap();

    let argv: Vec<String> = [
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--placements",
        "--stats",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();

    let argv: Vec<String> = [
        "frontier",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--max-cost",
        "40",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();

    let argv: Vec<String> = ["info", "--net", net.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    run(&argv).unwrap();

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn yield_solve_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-yield-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let net = dir.join("y.net");
    let lib = dir.join("y.lib");
    let var = dir.join("y.var");
    let json = dir.join("y.json");

    let argv: Vec<String> = [
        "gen",
        "net",
        "--kind",
        "line",
        "--length",
        "8000",
        "--sites",
        "7",
        "-o",
        net.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();
    let argv: Vec<String> = ["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    run(&argv).unwrap();
    fs::write(
        &var,
        "wire-r normal 1.0 0.05\nwire-c normal 1.0 0.05\nlocality 0.5\nseed 7\n",
    )
    .unwrap();

    let argv: Vec<String> = [
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--variation",
        var.to_str().unwrap(),
        "--samples",
        "8",
        "--quantile",
        "0.25",
        "--stats",
        "--json",
        json.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();
    let report = fs::read_to_string(&json).unwrap();
    for key in [
        "\"samples\": 8",
        "\"quantile\": 0.25",
        "\"quantile_slack_ps\"",
        "\"yield\"",
        "\"per_sample\"",
    ] {
        assert!(report.contains(key), "missing {key} in {report}");
    }

    // --samples / --quantile without --variation is a usage error, as
    // is --placements in yield mode (there are no placements to show).
    let argv: Vec<String> = [
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--samples",
        "8",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(run(&argv)
        .unwrap_err()
        .contains("--samples needs --variation"));
    let argv: Vec<String> = [
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--variation",
        var.to_str().unwrap(),
        "--placements",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(run(&argv).unwrap_err().contains("--placements"));

    // A malformed spec is rejected with its line number.
    fs::write(&var, "wire-r normal 1.0 -0.5\n").unwrap();
    let argv: Vec<String> = [
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--variation",
        var.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(run(&argv).unwrap_err().contains("line 1"));
    // An error on line 3 keeps its line through the typed parse error, and
    // the message text is the parser's, word for word.
    fs::write(&var, "# header\nseed 7\nwire-c normal 1.0 -0.5\n").unwrap();
    let err = run(&argv).unwrap_err();
    assert_eq!(
        err.message,
        format!(
            "{}: variation file line 3: sigma must be non-negative, got -0.5",
            var.display()
        )
    );
    assert_eq!(err.code, 23, "the variation-parse exit code");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_accepts_every_net_kind() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-kinds-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    for (kind, extra) in [
        ("random", vec!["--sinks", "12", "--seed", "3"]),
        ("line", vec!["--length", "3000", "--sites", "4"]),
        ("htree", vec!["--levels", "2", "--pitch", "300"]),
        ("caterpillar", vec!["--sinks", "9", "--pitch", "250"]),
    ] {
        let net = dir.join(format!("{kind}.net"));
        let mut argv: Vec<String> = ["gen", "net", "--kind", kind]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.extend(extra.iter().map(|s| s.to_string()));
        argv.push("-o".into());
        argv.push(net.to_str().unwrap().into());
        run(&argv).unwrap_or_else(|e| panic!("{kind}: {e}"));
        // Generated files parse and report.
        let argv: Vec<String> = ["info", "--net", net.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&argv).unwrap_or_else(|e| panic!("{kind} info: {e}"));
    }
    let argv: Vec<String> = ["gen", "net", "--kind", "mystery"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(run(&argv).unwrap_err().contains("unknown net kind"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_and_batch_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-batch-{}", std::process::id()));
    let suite_dir = dir.join("suite");
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("b.lib");
    let json = dir.join("report.json");

    let argv: Vec<String> = [
        "gen",
        "suite",
        "--nets",
        "12",
        "--max-sinks",
        "24",
        "--seed",
        "5",
        "--out-dir",
        suite_dir.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();
    assert_eq!(fs::read_dir(&suite_dir).unwrap().count(), 12);

    let argv: Vec<String> = ["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    run(&argv).unwrap();

    let argv: Vec<String> = [
        "batch",
        "--dir",
        suite_dir.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--workers",
        "3",
        "--check",
        "--per-net",
        "--json",
        json.to_str().unwrap(),
        "--placements",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"nets\": 12"));
    assert!(report.contains("\"placements\""));

    // The same run through a manifest (with a comment line) works too.
    let manifest = dir.join("nets.txt");
    let mut listing = String::from("# three nets of the suite\n");
    for i in [0usize, 3, 7] {
        listing.push_str(&format!("suite/net{i:05}.net\n"));
    }
    fs::write(&manifest, listing).unwrap();
    let argv: Vec<String> = [
        "batch",
        "--manifest",
        manifest.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();

    fs::remove_dir_all(&dir).ok();
}

/// Satellite: the `--check` failure path must fail loudly, naming the
/// offending net. `--check-fault N` (a testing hook) perturbs net N's
/// sequential re-solve so the divergence branch actually runs; the
/// binary's `main` maps the returned `Err` to a nonzero exit code.
#[test]
fn batch_check_failure_names_the_offending_net() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-fault-{}", std::process::id()));
    let suite_dir = dir.join("suite");
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("b.lib");
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());

    run_strs(&[
        "gen",
        "suite",
        "--nets",
        "5",
        "--max-sinks",
        "16",
        "--seed",
        "2",
        "--out-dir",
        suite_dir.to_str().unwrap(),
    ])
    .unwrap();
    run_strs(&["gen", "lib", "--size", "3", "-o", lib.to_str().unwrap()]).unwrap();

    // Sanity: without the fault the check passes.
    run_strs(&[
        "batch",
        "--dir",
        suite_dir.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--check",
    ])
    .unwrap();

    // Forced mismatch on net index 3: the error names it.
    let err = run_strs(&[
        "batch",
        "--dir",
        suite_dir.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--check",
        "--check-fault",
        "3",
    ])
    .unwrap_err();
    assert!(err.contains("check failed"), "{err}");
    assert!(err.contains("net 3"), "must name the net index: {err}");
    assert!(
        err.contains("net00003.net"),
        "must name the net file: {err}"
    );
    assert!(err.contains("diverges"), "{err}");

    // A fault index outside the batch changes nothing.
    run_strs(&[
        "batch",
        "--dir",
        suite_dir.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--check",
        "--check-fault",
        "99",
    ])
    .unwrap();

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_and_batch_with_slew_limit_and_model() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-slew-{}", std::process::id()));
    let suite_dir = dir.join("suite");
    fs::create_dir_all(&dir).unwrap();
    let net = dir.join("t.net");
    let lib = dir.join("t.lib");
    let json = dir.join("r.json");
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());

    run_strs(&[
        "gen",
        "net",
        "--kind",
        "line",
        "--length",
        "9000",
        "--sites",
        "8",
        "-o",
        net.to_str().unwrap(),
    ])
    .unwrap();
    run_strs(&["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]).unwrap();

    for model in ["elmore", "scaled-elmore"] {
        run_strs(&[
            "solve",
            "--net",
            net.to_str().unwrap(),
            "--lib",
            lib.to_str().unwrap(),
            "--slew-limit",
            "300",
            "--model",
            model,
            "--placements",
        ])
        .unwrap_or_else(|e| panic!("{model}: {e}"));
    }
    let err = run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--model",
        "spice",
    ])
    .unwrap_err();
    assert!(err.contains("unknown delay model"), "{err}");
    let err = run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--slew-limit",
        "-5",
    ])
    .unwrap_err();
    assert!(err.contains("--slew-limit"), "{err}");

    // Slew-stressed suite through the slew-constrained batch, with
    // check + JSON.
    run_strs(&[
        "gen",
        "suite",
        "--nets",
        "6",
        "--max-sinks",
        "16",
        "--seed",
        "3",
        "--slew-stress",
        "--out-dir",
        suite_dir.to_str().unwrap(),
    ])
    .unwrap();
    run_strs(&[
        "batch",
        "--dir",
        suite_dir.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--slew-limit",
        "400",
        "--check",
        "--per-net",
        "--json",
        json.to_str().unwrap(),
    ])
    .unwrap();
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"slew_limit_ps\": 400"), "{report}");
    assert!(report.contains("\"max_slew_ps\""));
    assert!(report.contains("\"slew_ok\""));

    fs::remove_dir_all(&dir).ok();
}

/// Satellite: `solve --json` emits the same per-net JSON schema as
/// `batch --json` (both print `fastbuf_api::NetOutcome` records),
/// and `solve --scenarios FILE` runs multi-corner requests end to end.
#[test]
fn solve_json_and_scenarios_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-scen-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let net = dir.join("t.net");
    let lib = dir.join("t.lib");
    let corners = dir.join("corners.txt");
    let solve_json = dir.join("solve.json");
    let batch_json = dir.join("batch.json");
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());

    run_strs(&[
        "gen",
        "net",
        "--kind",
        "line",
        "--length",
        "9000",
        "--sites",
        "8",
        "-o",
        net.to_str().unwrap(),
    ])
    .unwrap();
    run_strs(&["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]).unwrap();

    // Single solve --json first: its record keys must be exactly the
    // batch per-net keys (shared serializer).
    run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--json",
        solve_json.to_str().unwrap(),
        "--placements",
    ])
    .unwrap();
    let single = fs::read_to_string(&solve_json).unwrap();
    let manifest = dir.join("one.txt");
    fs::write(&manifest, "t.net\n").unwrap();
    run_strs(&[
        "batch",
        "--manifest",
        manifest.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--json",
        batch_json.to_str().unwrap(),
        "--placements",
    ])
    .unwrap();
    let batch = fs::read_to_string(&batch_json).unwrap();
    for key in [
        "\"net\"",
        "\"index\"",
        "\"sinks\"",
        "\"sites\"",
        "\"slack_before_ps\"",
        "\"slack_after_ps\"",
        "\"slew_before_ps\"",
        "\"max_slew_ps\"",
        "\"slew_ok\"",
        "\"buffers\"",
        "\"cost\"",
        "\"elapsed_us\"",
        "\"placements\"",
    ] {
        assert!(batch.contains(key), "batch lost {key}: {batch}");
        assert!(single.contains(key), "solve missing {key}: {single}");
    }

    // Multi-corner run through a scenario file.
    fs::write(
        &corners,
        "# three corners\n\
         typical\n\
         slow derate=0.9 slew-limit-ps=350\n\
         fast model=scaled-elmore algo=lillis\n",
    )
    .unwrap();
    run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--scenarios",
        corners.to_str().unwrap(),
        "--json",
        solve_json.to_str().unwrap(),
    ])
    .unwrap();
    let multi = fs::read_to_string(&solve_json).unwrap();
    assert!(multi.contains("\"scenarios\": 3"), "{multi}");
    for name in ["typical", "slow", "fast"] {
        assert!(
            multi.contains(&format!("\"scenario\": \"{name}\"")),
            "{multi}"
        );
    }
    assert!(multi.contains("\"slack_after_ps\""));

    // A corner file with a single line keeps the named, scenario-keyed
    // output — downstream tooling keyed on scenario names must not
    // break when a file shrinks to one corner.
    fs::write(&corners, "signoff slew-limit-ps=350\n").unwrap();
    run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--scenarios",
        corners.to_str().unwrap(),
        "--json",
        solve_json.to_str().unwrap(),
    ])
    .unwrap();
    let single_corner = fs::read_to_string(&solve_json).unwrap();
    assert!(
        single_corner.contains("\"scenario\": \"signoff\""),
        "{single_corner}"
    );

    // Flag conflicts and file errors are reported, not panicked.
    let err = run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--scenarios",
        corners.to_str().unwrap(),
        "--slew-limit",
        "200",
    ])
    .unwrap_err();
    assert!(err.contains("conflicts"), "{err}");
    assert_eq!(err.code, 2, "flag conflicts are usage errors");
    fs::write(&corners, "bad line=").unwrap();
    let err = run_strs(&[
        "solve",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--scenarios",
        corners.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    // The distinct per-variant exit code of `SolveError::ScenarioParse`
    // (documented in --help).
    assert_eq!(err.code, 18, "scenario-parse exit code");

    fs::remove_dir_all(&dir).ok();
}

/// Satellite: every error family keeps its documented exit code —
/// usage 2, I/O 3, typed solver errors their per-variant 10–20.
#[test]
fn exit_codes_follow_the_documented_mapping() {
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    // Usage: unknown command.
    assert_eq!(run_strs(&["bogus"]).unwrap_err().code, 2);
    // I/O: unreadable net file.
    let err = run_strs(&["info", "--net", "/nonexistent/x.net"]).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
    assert_eq!(err.code, 3, "I/O errors exit 3");
    // The mapping itself is pinned distinct in `fastbuf-api`'s
    // `kinds_and_exit_codes_are_distinct`; here we pin that `--help`
    // documents every code the binary can exit with.
    for code in ["| 2 usage", "| 3 I/O"] {
        assert!(USAGE.contains(code), "--help must document `{code}`");
    }
    let (_, codes) = USAGE.split_once("exit codes:").unwrap();
    for code in 10..=25u8 {
        assert!(
            codes.contains(&format!("{code} ")),
            "--help must document exit code {code}"
        );
    }

    // An unknown `--model` is the typed `unknown-model` error on every
    // command that takes the flag, as on a scenario line or a frame.
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-codes-{}", std::process::id()));
    let suite = dir.join("suite");
    fs::create_dir_all(&dir).unwrap();
    let (net, lib) = (dir.join("t.net"), dir.join("t.lib"));
    let (net, lib, suite) = (
        net.to_str().unwrap(),
        lib.to_str().unwrap(),
        suite.to_str().unwrap(),
    );
    run_strs(&["gen", "net", "--kind", "line", "--sites", "3", "-o", net]).unwrap();
    run_strs(&["gen", "lib", "--size", "2", "-o", lib]).unwrap();
    run_strs(&["gen", "suite", "--nets", "2", "--out-dir", suite]).unwrap();
    for args in [
        &["solve", "--net", net, "--lib", lib][..],
        &["batch", "--dir", suite, "--lib", lib],
        &["eco", "--net", net, "--lib", lib],
        &["global", "--lib", lib, "--nets", "2"],
    ] {
        let err = run_strs(&[args, &["--model", "spice"]].concat()).unwrap_err();
        assert_eq!(err.code, 19, "{}: {err}", args[0]);
        assert_eq!(
            err.message,
            SolveError::UnknownModel("spice".into()).to_string(),
            "{}",
            args[0]
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// Non-finite net numbers are parse errors on their line (exit 2): `nan`
/// once panicked in a unit constructor, and `inf` solved to a "verified"
/// slack of -inf.
#[test]
fn non_finite_net_numbers_exit_2_with_their_line() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-nonfinite-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("t.lib");
    fs::write(&lib, BufferLibrary::paper_synthetic(2).unwrap().to_text()).unwrap();
    let (source, sink, edge) = (
        "node 0 source 100",
        "node 1 sink 10 500",
        "edge 0 1 100 295",
    );
    for (name, lines, line) in [
        ("src-nan", ["node 0 source nan", sink, edge], 3),
        ("src-inf", ["node 0 source inf", sink, edge], 3),
        ("edge-nan", [source, sink, "edge 0 1 nan 295"], 5),
    ] {
        let net = dir.join(format!("{name}.net"));
        let text = format!("fastbuf-net v1\nnodes 2\n{}\n", lines.join("\n"));
        fs::write(&net, text).unwrap();
        let args = [
            "solve",
            "--net",
            net.to_str().unwrap(),
            "--lib",
            lib.to_str().unwrap(),
        ];
        let err = run(&args.map(str::to_owned)).unwrap_err();
        assert_eq!(err.code, 2, "{name}: {err}");
        let prefix = format!("{}: line {line}: ", net.display());
        assert!(err.message.starts_with(&prefix), "{name}: {err}");
        assert!(err.message.contains("must be finite"), "{name}: {err}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Satellite: `fastbuf serve` flag validation (the server's behavior
/// itself is covered by `fastbuf-server`'s tests).
#[test]
fn serve_validates_flags_before_binding() {
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let err = run_strs(&["serve"]).unwrap_err();
    assert!(err.contains("--stdio or --port"), "{err}");
    let err = run_strs(&["serve", "--stdio", "--port", "0"]).unwrap_err();
    assert!(err.contains("not both"), "{err}");
    let err = run_strs(&["serve", "--stdio", "--workers", "0"]).unwrap_err();
    assert!(err.contains("--workers"), "{err}");
    let err = run_strs(&["serve", "--stdio", "--preload", "busted"]).unwrap_err();
    assert!(err.contains("ID=NET,LIB"), "{err}");
    let err =
        run_strs(&["serve", "--stdio", "--preload", "d=/nonexistent.net,/x.lib"]).unwrap_err();
    assert_eq!(err.code, 3, "preload I/O failures exit 3: {err}");
}

/// `fastbuf eco` end to end — random scripts, edit files, library swaps,
/// `--check` bit-identity and verification, JSON output, and flag
/// validation.
#[test]
fn eco_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-eco-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let net = dir.join("t.net");
    let lib = dir.join("t.lib");
    let edits = dir.join("script.eco");
    let json = dir.join("eco.json");
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());

    run_strs(&[
        "gen",
        "net",
        "--kind",
        "random",
        "--sinks",
        "14",
        "--seed",
        "4",
        "-o",
        net.to_str().unwrap(),
    ])
    .unwrap();
    run_strs(&["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]).unwrap();

    // Random script + check + emit + json, in one run.
    run_strs(&[
        "eco",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--random",
        "12",
        "--locality",
        "0.3",
        "--seed",
        "7",
        "--check",
        "--per-edit",
        "--emit-edits",
        edits.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ])
    .unwrap();
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"edits\": 12"), "{report}");
    assert!(report.contains("\"nodes_recomputed\""));
    assert!(report.contains("\"checked\": true"));

    // The emitted script replays through --edits (with a slew limit
    // and a non-default model, still bit-identical under --check).
    assert!(fs::read_to_string(&edits).unwrap().lines().count() == 12);
    for model in ["elmore", "scaled-elmore"] {
        run_strs(&[
            "eco",
            "--net",
            net.to_str().unwrap(),
            "--lib",
            lib.to_str().unwrap(),
            "--edits",
            edits.to_str().unwrap(),
            "--model",
            model,
            "--slew-limit",
            "400",
            "--check",
        ])
        .unwrap_or_else(|e| panic!("{model}: {e}"));
    }

    // Library swaps under --check: the command restarts its session on
    // each swapped library, checks every answer against a fresh request
    // and the forward evaluation, and reports that it did.
    let script = fs::read_to_string(&edits).unwrap();
    let mut lines: Vec<&str> = script.lines().collect();
    lines.insert(5, "swaplib 6 3");
    lines.push("swaplib 4 0");
    let swapped = dir.join("swapped.eco");
    fs::write(&swapped, lines.join("\n") + "\n").unwrap();
    let argv: Vec<String> = [
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--edits",
        swapped.to_str().unwrap(),
        "--check",
        "--json",
        json.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut out = Vec::new();
    eco::eco_to(&argv, &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(
        out.contains("check: all 14 incremental results verified and bit-identical"),
        "{out}"
    );
    assert!(
        out.contains("verified: forward evaluation matches the final answer"),
        "{out}"
    );
    let report = Json::parse(&fs::read_to_string(&json).unwrap()).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 14);
    for (k, edit) in [(5, "swaplib 6 3"), (13, "swaplib 4 0")] {
        let record = &results[k];
        assert_eq!(record.get("edit").unwrap().as_str(), Some(edit));
        // A swap recomputes the whole tree; the next edit reuses again.
        assert_eq!(record.get("nodes_reused").unwrap().as_u64(), Some(0));
    }
    assert!(results[6].get("nodes_reused").unwrap().as_u64().unwrap() > 0);

    // Flag validation.
    let err = run_strs(&[
        "eco",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("--edits or --random"), "{err}");
    let err = run_strs(&[
        "eco",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--random",
        "5",
        "--locality",
        "1.5",
    ])
    .unwrap_err();
    assert!(err.contains("--locality"), "{err}");
    // A script naming a nonexistent node fails with the edit named.
    fs::write(&edits, "rat n9999 100\n").unwrap();
    let err = run_strs(&[
        "eco",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--edits",
        edits.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("edit 1"), "{err}");
    assert!(err.contains("n9999"), "{err}");
    // A malformed script reports its line.
    fs::write(&edits, "wire n1\n").unwrap();
    let err = run_strs(&[
        "eco",
        "--net",
        net.to_str().unwrap(),
        "--lib",
        lib.to_str().unwrap(),
        "--edits",
        edits.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("line 1"), "{err}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_flag_validation() {
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let err = run_strs(&["batch", "--lib", "/nonexistent.lib"]).unwrap_err();
    assert!(err.contains("--dir or --manifest"), "{err}");
    let err = run_strs(&[
        "batch",
        "--dir",
        "/nonexistent-dir",
        "--manifest",
        "/nonexistent.txt",
        "--lib",
        "x",
    ])
    .unwrap_err();
    assert!(err.contains("not both"), "{err}");
    let err = run_strs(&["batch", "--dir", "/nonexistent-dir", "--lib", "x"]).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
    // Suite bounds are CLI errors, not netgen panics.
    let err = run_strs(&["gen", "suite", "--out-dir", "/tmp/x", "--nets", "0"]).unwrap_err();
    assert!(err.contains("--nets"), "{err}");
    let err = run_strs(&["gen", "suite", "--out-dir", "/tmp/x", "--max-sinks", "4"]).unwrap_err();
    assert!(err.contains("--max-sinks"), "{err}");
}

#[test]
fn gen_lib_with_jitter_roundtrips() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-lib-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("j.lib");
    let argv: Vec<String> = [
        "gen",
        "lib",
        "--size",
        "6",
        "--jitter",
        "11",
        "-o",
        lib.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&argv).unwrap();
    let parsed = BufferLibrary::from_text(&fs::read_to_string(&lib).unwrap()).unwrap();
    assert_eq!(parsed.len(), 6);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_reports_missing_files() {
    let argv: Vec<String> = [
        "solve",
        "--net",
        "/nonexistent.net",
        "--lib",
        "/nonexistent.lib",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let err = run(&argv).unwrap_err();
    assert!(err.contains("cannot read"));
}

/// `fastbuf cts` end to end: generated placements, file round-trip,
/// skew-aware solving, JSON, the inverter path, and flag validation.
#[test]
fn cts_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cts-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("c.lib");
    let placements = dir.join("c.sinks");
    let json = dir.join("c.json");
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());

    run_strs(&["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]).unwrap();

    // Generated placements, emitted to a file, loose skew bound met.
    run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--sinks",
        "24",
        "--seed",
        "7",
        "--max-skew",
        "500",
        "--emit-placements",
        placements.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ])
    .unwrap();
    let record = fs::read_to_string(&json).unwrap();
    for key in [
        "\"skew_ps\"",
        "\"latency_max_ps\"",
        "\"skew_ok\": true",
        "\"max_skew_ps\": 500",
    ] {
        assert!(record.contains(key), "{key} missing from {record}");
    }

    // The emitted placement file drives the same pipeline.
    run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--placements",
        placements.to_str().unwrap(),
        "--pitch",
        "0",
    ])
    .unwrap();

    // Inverter-aware path.
    run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--sinks",
        "8",
        "--inverters",
    ])
    .unwrap();

    // Flag validation.
    let err = run_strs(&["cts", "--lib", lib.to_str().unwrap(), "--sinks", "0"]).unwrap_err();
    assert!(err.contains("--sinks"), "{err}");
    let err = run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--placements",
        placements.to_str().unwrap(),
        "--sinks",
        "4",
    ])
    .unwrap_err();
    assert!(err.contains("conflicts"), "{err}");
    let err = run_strs(&["cts", "--lib", lib.to_str().unwrap(), "--max-skew", "-5"]).unwrap_err();
    assert!(err.contains("--max-skew"), "{err}");
    let err = run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--sinks",
        "8",
        "--inverters",
        "--json",
        "-",
    ])
    .unwrap_err();
    assert!(err.contains("--inverters"), "{err}");

    // A bad placement line is a line-numbered error.
    fs::write(&placements, "sink 0 0 nan 1000\n").unwrap();
    let err = run_strs(&[
        "cts",
        "--lib",
        lib.to_str().unwrap(),
        "--placements",
        placements.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn placement_and_capacity_errors_keep_their_text() {
    let dir = std::env::temp_dir().join(format!("fastbuf-line-err-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let lib = dir.join("e.lib");
    let file = dir.join("e.txt");
    let path = file.to_str().unwrap();
    let run_strs = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    run_strs(&["gen", "lib", "--size", "4", "-o", lib.to_str().unwrap()]).unwrap();

    // Placement files: a line error and the whole-file error, word for word.
    let cts = |text: &str| {
        fs::write(&file, text).unwrap();
        run_strs(&["cts", "--lib", lib.to_str().unwrap(), "--placements", path])
            .unwrap_err()
            .message
    };
    assert_eq!(
        cts("sink 0 0 10 1000\n# note\nsink 1 2 3\n"),
        format!("{path}: line 3: missing `rat_ps`")
    );
    assert_eq!(
        cts("# nothing\n"),
        format!("{path}: no sinks in placement file")
    );

    // Capacity files: a duplicate site id names its own line.
    fs::write(&file, "site 0 1\nsite 1 1\nsite 0 2\n").unwrap();
    let err =
        run_strs(&["global", "--lib", lib.to_str().unwrap(), "--capacity", path]).unwrap_err();
    assert_eq!(err.message, format!("{path}: line 3: duplicate site id 0"));
    fs::remove_dir_all(&dir).ok();
}

/// Replaces the value of every wall-clock key with `T`.
fn normalize_clock(text: &str) -> String {
    let mut out = text.to_owned();
    for key in ["\"elapsed_us\": ", "\"elapsed_ms\": ", "\"nets_per_sec\": "] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let len = out[start..]
                .find([',', '}', '\n'])
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "T");
            from = start + 1;
        }
    }
    out
}

/// Byte-identity goldens of every `--json` report the CLI writes; the
/// expected bytes live in `crates/cli/tests/golden/`.
#[test]
fn json_reports_match_their_goldens() {
    let dir = std::env::temp_dir().join(format!("fastbuf-cli-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap();
    let run_line = |line: &str| {
        run(&line
            .split_whitespace()
            .map(str::to_owned)
            .collect::<Vec<_>>())
    };
    let golden = |name: &str, line: &str| {
        run_line(&format!("{line} --json {d}/{name}.json")).unwrap();
        let actual = fs::read_to_string(dir.join(format!("{name}.json"))).unwrap();
        let actual = normalize_clock(&actual).replace(d, "DIR");
        let expected = fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(format!("{name}.json")),
        )
        .unwrap();
        assert_eq!(actual, expected, "{name} drifted from its golden");
    };

    run_line(&format!(
        "gen net --kind random --sinks 6 --seed 4 -o {d}/g.net"
    ))
    .unwrap();
    run_line(&format!("gen lib --size 4 -o {d}/g.lib")).unwrap();
    run_line(&format!(
        "gen suite --nets 3 --max-sinks 8 --seed 5 --out-dir {d}/suite"
    ))
    .unwrap();
    fs::write(dir.join("g.var"), "wire-r normal 1.0 0.05\nseed 7\n").unwrap();
    fs::write(dir.join("g.scn"), "typical\nslow derate=0.9\n").unwrap();

    let solve = format!("solve --net {d}/g.net --lib {d}/g.lib");
    golden("solve", &format!("{solve} --placements"));
    golden("solve_scenarios", &format!("{solve} --scenarios {d}/g.scn"));
    golden(
        "solve_variation",
        &format!("{solve} --variation {d}/g.var --samples 3"),
    );
    golden(
        "eco",
        &format!("eco --net {d}/g.net --lib {d}/g.lib --random 3 --seed 7 --check"),
    );
    golden(
        "cts",
        &format!("cts --lib {d}/g.lib --sinks 6 --seed 7 --max-skew 500 --show-placements"),
    );
    golden(
        "global",
        &format!("global --lib {d}/g.lib --nets 3 --pool 12 --sites-per-net 6"),
    );
    golden(
        "batch",
        &format!("batch --dir {d}/suite --lib {d}/g.lib --workers 1 --placements"),
    );
    fs::remove_dir_all(&dir).ok();
}
