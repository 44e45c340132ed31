//! Command-line parsing.

use crate::catalog::{self, Workload, RUN_SECONDS};
use crate::run::RunOpts;

pub const USAGE: &str = "\
hsqp_bench — closed-loop, single-client benchmark of hsqp

USAGE:
    hsqp_bench --workload <NAME> [--seed <N>] [--seconds <S>] [--trace <0|1>]
               [--quick] [--trace-out <FILE>]
    hsqp_bench list [--json]
    hsqp_bench suite --runs <K> --out <FILE> [--seed <N>] [--seconds <S>] [--quick]
    hsqp_bench compare <A.json> <B.json>
    hsqp_bench record-golden

A run prints every metric by name with its unit, then one JSON object as
the last line of stdout. `--trace 0` (default) reports the end-to-end
metrics; `--trace 1` the per-layer ones. `--seed` only permutes the
template order inside each pass. `--quick` is the harness tests' scale
(SF 0.005, fewer set-ups and passes); its numbers mean nothing.
";

/// What the process was asked to do.
pub enum Command {
    Run(RunOpts),
    List {
        json: bool,
    },
    Suite(SuiteOpts),
    Compare {
        a: String,
        b: String,
    },
    RecordGolden,
    /// Hidden: one cluster node (a child of the socket workload).
    Node,
    /// Hidden: print a workload's reference digests (a child of a run).
    Reference {
        workload: &'static Workload,
        quick: bool,
    },
    Help,
}

/// Arguments of `suite`.
pub struct SuiteOpts {
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: String,
}

/// `--flag value` pairs and bare flags of one subcommand.
struct Flags<'a> {
    argv: &'a [String],
    at: usize,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.argv.get(self.at)?;
        self.at += 1;
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", known.join(", "))
    })
}

fn positive_seconds(flags: &mut Flags<'_>) -> Result<f64, String> {
    let s: f64 = flags.parsed("--seconds")?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds: {s} is not a positive number"))
    }
}

fn parse_run(argv: &[String]) -> Result<Command, String> {
    let mut flags = Flags { argv, at: 0 };
    let mut workload = None;
    let mut opts = RunOpts {
        workload: &catalog::WORKLOADS[0],
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        trace_out: None,
        fail_after_setup: false,
    };
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload = Some(workload_named(flags.value(flag)?)?),
            "--seed" => opts.seed = flags.parsed(flag)?,
            "--seconds" => opts.seconds = positive_seconds(&mut flags)?,
            "--trace" => {
                opts.trace = match flags.value(flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => opts.quick = true,
            "--trace-out" => opts.trace_out = Some(flags.value(flag)?.to_string()),
            "--fail-after-setup" => opts.fail_after_setup = true,
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    opts.workload = workload.ok_or("--workload is required (see --help)")?;
    Ok(Command::Run(opts))
}

fn parse_suite(argv: &[String]) -> Result<Command, String> {
    let mut flags = Flags { argv, at: 0 };
    let mut opts = SuiteOpts {
        runs: 0,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        quick: false,
        out: String::new(),
    };
    while let Some(flag) = flags.next() {
        match flag {
            "--runs" => opts.runs = flags.parsed(flag)?,
            "--seed" => opts.seed = flags.parsed(flag)?,
            "--seconds" => opts.seconds = positive_seconds(&mut flags)?,
            "--quick" => opts.quick = true,
            "--out" => opts.out = flags.value(flag)?.to_string(),
            other => return Err(format!("suite: unknown flag {other:?}")),
        }
    }
    if opts.runs == 0 {
        return Err("suite: --runs <K> with K >= 1 is required".into());
    }
    if opts.out.is_empty() {
        return Err("suite: --out <FILE> is required".into());
    }
    Ok(Command::Suite(opts))
}

fn parse_reference(argv: &[String]) -> Result<Command, String> {
    let mut flags = Flags { argv, at: 0 };
    let mut workload = None;
    let mut quick = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload = Some(workload_named(flags.value(flag)?)?),
            "--quick" => quick = true,
            other => return Err(format!("reference: unknown flag {other:?}")),
        }
    }
    Ok(Command::Reference {
        workload: workload.ok_or("reference: --workload is required")?,
        quick,
    })
}

/// Parse the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(first) = argv.first() else {
        return Ok(Command::Help);
    };
    let rest = &argv[1..];
    match first.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "list" => match rest {
            [] => Ok(Command::List { json: false }),
            [flag] if flag == "--json" => Ok(Command::List { json: true }),
            _ => Err("list takes only --json".into()),
        },
        "suite" => parse_suite(rest),
        "compare" => match rest {
            [a, b] => Ok(Command::Compare {
                a: a.clone(),
                b: b.clone(),
            }),
            _ => Err("compare takes two suite files".into()),
        },
        "record-golden" if rest.is_empty() => Ok(Command::RecordGolden),
        "node" if rest.is_empty() => Ok(Command::Node),
        "reference" => parse_reference(rest),
        flag if flag.starts_with("--") => parse_run(argv),
        other => Err(format!("unknown command {other:?} (see --help)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let cmd = parse(&argv(
            "--workload shuffle_sf01_sim --seed 17 --seconds 12 --trace 1",
        ));
        match cmd {
            Ok(Command::Run(o)) => {
                assert_eq!(o.workload.name, "shuffle_sf01_sim");
                assert_eq!(
                    (o.seed, o.seconds, o.trace, o.quick),
                    (17, 12.0, true, false)
                );
            }
            _ => panic!("expected a run"),
        }
    }

    #[test]
    fn defaults_and_subcommands() {
        match parse(&argv("--workload tpch_sf001_sim --quick")) {
            Ok(Command::Run(o)) => {
                assert_eq!((o.seed, o.trace, o.quick), (0, false, true));
                assert_eq!(o.seconds, RUN_SECONDS as f64);
            }
            _ => panic!("expected a run"),
        }
        assert!(matches!(
            parse(&argv("list --json")),
            Ok(Command::List { json: true })
        ));
        assert!(matches!(
            parse(&argv("compare a.json b.json")),
            Ok(Command::Compare { .. })
        ));
        assert!(matches!(parse(&argv("node")), Ok(Command::Node)));
        assert!(matches!(parse(&[]), Ok(Command::Help)));
        match parse(&argv("suite --runs 5 --out x.json --seed 3")) {
            Ok(Command::Suite(s)) => assert_eq!((s.runs, s.seed, s.out.as_str()), (5, 3, "x.json")),
            _ => panic!("expected a suite"),
        }
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for line in [
            "--workload nope",
            "--seed 1",
            "--workload tpch_sf001_sim --trace 2",
            "--workload tpch_sf001_sim --seconds 0",
            "--workload tpch_sf001_sim --seconds",
            "--workload tpch_sf001_sim --seed -1",
            "--workload tpch_sf001_sim --frobnicate",
            "frobnicate",
            "compare only-one.json",
            "suite --out x.json",
            "suite --runs 3",
            "list --yaml",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line:?} should be rejected");
        }
    }
}
