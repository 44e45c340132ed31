//! The answers every execution is checked against: each template run once
//! on an in-process 3×1 cluster over the same generated data, and the
//! committed golden copies of those digests.
//!
//! The reference is computed in a child process (this executable's hidden
//! `reference` mode) so that its copy of the data never counts towards the
//! measured process's peak memory.

use std::collections::BTreeMap;
use std::process::Stdio;

use hsqp::tpch::TpchDb;

use crate::catalog::Workload;
use crate::digest::{digests_from_json, digests_to_json, fingerprint, Digest};
use crate::json::{self, obj, s, Json};
use crate::procs::this_exe;
use crate::workload::{sim_config, sim_session, templates, Backend};

/// Nodes of the reference cluster: deliberately not the benchmarked
/// shape, so a bug that depends on the node count shows as a mismatch.
const REFERENCE_NODES: u16 = 3;

/// Reference digests of one workload's templates.
pub struct Reference {
    /// Fingerprint of the generated tables the digests were taken over.
    pub fingerprint: String,
    pub digests: BTreeMap<String, Digest>,
}

impl Reference {
    /// Run every template once on the reference cluster.
    pub fn compute(workload: &Workload, quick: bool) -> Result<Reference, String> {
        let db = TpchDb::generate(workload.scale_factor(quick));
        let fingerprint = fingerprint(&db);
        let (session, _) = sim_session(sim_config(REFERENCE_NODES, false), db)
            .map_err(|e| format!("reference cluster: {e}"))?;
        let backend = Backend::Sim(session);
        let digests = templates(workload.kind)
            .iter()
            .map(|t| {
                let result = backend
                    .execute(t)
                    .map_err(|e| format!("reference {}: {e}", t.name))?;
                Ok((t.name.clone(), Digest::of(&result.table)))
            })
            .collect::<Result<_, String>>()?;
        Ok(Reference {
            fingerprint,
            digests,
        })
    }

    /// [`compute`](Self::compute) in a child process.
    pub fn compute_in_child(workload: &Workload, quick: bool) -> Result<Reference, String> {
        let mut cmd = this_exe()?;
        cmd.args(["reference", "--workload", workload.name]);
        if quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child, so none is left behind.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("reference child: {e}"))?;
        if !out.status.success() {
            return Err(format!("reference child exited with {}", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| format!("reference child: {e}"))?;
        Reference::from_json(&json::parse(&text).map_err(|e| format!("reference child: {e}"))?)
    }

    /// Q9 comes back empty while the generator's colour list stops before
    /// "green"; whoever shows these digests says so.
    pub fn q9_is_empty(&self) -> bool {
        self.digests.get("Q9").is_some_and(|d| d.rows == 0)
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("fingerprint", s(&self.fingerprint)),
            ("digests", digests_to_json(&self.digests)),
        ])
    }

    pub fn from_json(value: &Json) -> Result<Reference, String> {
        Ok(Reference {
            fingerprint: value
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("reference: missing \"fingerprint\"")?
                .to_string(),
            digests: digests_from_json(
                value
                    .get("digests")
                    .ok_or("reference: missing \"digests\"")?,
            )?,
        })
    }
}

/// File stem of a workload's golden digests: workloads over the same data
/// and templates (`tpch_sf001_sim`, `tpch_sf001_socket`) share one.
pub fn golden_stem(workload: &Workload) -> &'static str {
    workload
        .name
        .rsplit_once('_')
        .map_or(workload.name, |(stem, _)| stem)
}

/// The committed golden digests of `workload`, compiled in.
fn golden_text(workload: &Workload) -> Option<&'static str> {
    match golden_stem(workload) {
        "tpch_sf005" => Some(include_str!("../golden/tpch_sf005.json")),
        "tpch_sf001" => Some(include_str!("../golden/tpch_sf001.json")),
        "shuffle_sf01" => Some(include_str!("../golden/shuffle_sf01.json")),
        _ => None,
    }
}

/// How this run's reference relates to the committed goldens.
#[derive(Debug, PartialEq)]
pub enum Golden {
    /// Same data, same answers.
    Match,
    /// The generated tables differ from the recorded ones (a generator
    /// fix): the goldens need re-recording; not a failure.
    Stale,
    /// No goldens for this scale (`--quick`) or an unreadable file.
    Missing,
    /// Same data, different answers: the engine's results changed.
    Mismatch(String),
}

impl Golden {
    pub fn label(&self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Stale => "stale",
            Golden::Missing => "missing",
            Golden::Mismatch(_) => "mismatch",
        }
    }
}

/// Compare this run's `reference` with the committed goldens.
pub fn check_golden(workload: &Workload, quick: bool, reference: &Reference) -> Golden {
    if quick {
        return Golden::Missing;
    }
    let Some(golden) = golden_text(workload)
        .and_then(|text| json::parse(text).ok())
        .and_then(|value| Reference::from_json(&value).ok())
    else {
        return Golden::Missing;
    };
    if golden.fingerprint != reference.fingerprint {
        return Golden::Stale;
    }
    for (name, digest) in &reference.digests {
        match golden.digests.get(name) {
            None => return Golden::Mismatch(format!("{name}: not in the golden file")),
            Some(g) => {
                if let Err(why) = g.same_as(digest) {
                    return Golden::Mismatch(format!("{name}: {why}"));
                }
            }
        }
    }
    Golden::Match
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn every_workload_has_goldens_and_the_socket_run_shares_the_sim_ones() {
        for w in &WORKLOADS {
            assert!(golden_text(w).is_some(), "{}", w.name);
        }
        assert_eq!(golden_stem(&WORKLOADS[1]), golden_stem(&WORKLOADS[3]));
    }

    #[test]
    fn committed_goldens_parse_and_cover_every_template() {
        for w in &WORKLOADS {
            let golden = Reference::from_json(&json::parse(golden_text(w).unwrap()).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            for t in templates(w.kind) {
                assert!(
                    golden.digests.contains_key(&t.name),
                    "{} {}",
                    w.name,
                    t.name
                );
            }
        }
    }
}
