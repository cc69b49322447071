//! Reference energies: the portfolio-best energy of every solve any
//! workload can issue, computed once by the in-process library and
//! committed as `reference.tsv` (one `key<TAB>energy|none` line each).
//!
//! Energies are bit-identical across the library, the daemon, warm and
//! cold caches and pool widths, so every check is exact: a returned
//! energy that differs from its reference is drift, and the run fails.

use std::collections::HashMap;

use ea_core::{Instance, Portfolio};
use rayon::prelude::*;

use crate::ops::{reference_universe, Prepared, Solve};

const TABLE: &str = include_str!("../reference.tsv");

/// The committed table.
pub struct Reference {
    energies: HashMap<String, Option<f64>>,
}

impl Reference {
    pub fn load() -> Reference {
        Reference::parse(TABLE)
    }

    fn parse(text: &str) -> Reference {
        let energies = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, e) = l
                    .split_once('\t')
                    .expect("reference lines are key<TAB>energy");
                let e = match e {
                    "none" => None,
                    v => Some(v.parse().expect("reference energies are numbers")),
                };
                (key.to_string(), e)
            })
            .collect();
        Reference { energies }
    }

    /// The reference energy of a solve (`None` = no valid mapping).
    pub fn get(&self, s: &Solve) -> Result<Option<f64>, String> {
        self.energies
            .get(&s.key())
            .copied()
            .ok_or_else(|| format!("no reference energy for {}", s.key()))
    }

    /// Checks one returned answer against the reference; `Ok(ratio)` for a
    /// solved match (`returned / reference`), `Ok(None)` for an agreed
    /// "no valid mapping".
    pub fn check(&self, s: &Solve, returned: Option<f64>) -> Result<Option<f64>, String> {
        match (self.get(s)?, returned) {
            (Some(r), Some(e)) if r == e => Ok(Some(e / r)),
            (None, None) => Ok(None),
            (r, e) => Err(format!(
                "energy drift on {}: reference {r:?}, returned {e:?}",
                s.key()
            )),
        }
    }
}

/// Recomputes the table (cold library portfolio per solve) and returns its
/// text. Panics when a solve would count as a failed op (every solver
/// failing with at least one budget failure): workloads must not contain
/// ops that fail.
pub fn compute_table() -> String {
    let universe = reference_universe();
    let lines: Vec<String> = universe
        .par_iter()
        .map(|s| {
            let p = Prepared::new(s.clone());
            let inst = Instance::from_shared(p.spg, p.platform, p.period);
            let report = Portfolio::heuristics().seeded(s.seed).run(&inst);
            let energy = match report.best_energy() {
                Some(e) => e.to_string(),
                None => {
                    let budget = report
                        .runs
                        .iter()
                        .filter_map(|r| r.result.as_ref().err())
                        .any(|f| f.budget_exceeded().is_some());
                    assert!(!budget, "{} would fail with too_expensive", s.key());
                    "none".to_string()
                }
            };
            format!("{}\t{energy}", s.key())
        })
        .collect();
    let mut out =
        String::from("# Portfolio-best reference energies; regenerate with `--write-reference`.\n");
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_gives_ratio_one_and_drift_is_an_error() {
        let r = Reference::parse("a p4x4 u0.5 s1\t0.25\nb p4x4 u0.5 s1\tnone\n");
        let a = crate::ops::Solve {
            work: crate::ops::Work::Streamit("a"),
            plat: crate::ops::Plat::mesh(4, 4),
            u: 0.5,
            probed: false,
            seed: 1,
        };
        // The key format is what the table is keyed on.
        let key = a.key();
        let r2 = Reference::parse(&format!("{key}\t0.25\n"));
        assert_eq!(r2.check(&a, Some(0.25)), Ok(Some(1.0)));
        assert!(r2.check(&a, Some(0.2500001)).is_err());
        assert!(r2.check(&a, None).is_err());
        assert!(r.get(&a).is_err());
    }

    #[test]
    fn committed_table_covers_the_universe() {
        let r = Reference::load();
        for s in reference_universe() {
            r.get(&s).unwrap();
        }
    }
}
