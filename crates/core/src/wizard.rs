//! A typed, step-guided front-end — the programmatic counterpart of the
//! SCube standalone wizard (Fig. 4).
//!
//! The GUI wizard walks a non-technical user through: load the four inputs,
//! pick a unit strategy and parameters, run, then open the reports. The
//! [`Wizard`] builder encodes the same steps as a fluent API with the same
//! validation at each step, ending in [`Wizard::run`] (cube in memory) or
//! [`Wizard::run_and_write`] (reports on disk).
//!
//! ```no_run
//! use scube::wizard::Wizard;
//! use scube::table_builder::UnitStrategy;
//! use scube::inputs::{GroupsSpec, IndividualsSpec, MembershipSpec};
//!
//! let result = Wizard::new()
//!     .individuals_csv("directors.csv", IndividualsSpec::new("id").sa("gender").sa("age"))
//!     .groups_csv("companies.csv", GroupsSpec::new("id").ca("sector"))
//!     .membership_csv("boards.csv", MembershipSpec::new("director", "company"))
//!     .units(UnitStrategy::GroupAttribute("sector".into()))
//!     .min_support(50)
//!     .run_and_write("out/")?;
//! # Ok::<(), scube_common::ScubeError>(())
//! ```

use std::path::{Path, PathBuf};

use scube_common::{Result, ScubeError};
use scube_cube::{CubeBuilder, Materialize};
use scube_data::Relation;

use crate::inputs::{Dataset, GroupsSpec, IndividualsSpec, MembershipSpec};
use crate::pipeline::{run, run_snapshots, ScubeConfig, ScubeResult};
use crate::table_builder::UnitStrategy;
use crate::visualizer::Visualizer;

enum Source {
    Path(PathBuf),
    InMemory(Relation),
}

impl Source {
    fn load(&self, what: &str) -> Result<Relation> {
        match self {
            Source::Path(p) => Relation::read_csv_path(p),
            Source::InMemory(r) => Ok(r.clone()),
            // Distinguishing the two in errors is not needed; Relation
            // reports the path itself.
        }
        .map_err(|e| match e {
            ScubeError::Schema(msg) => ScubeError::Schema(format!("{what}: {msg}")),
            other => other,
        })
    }
}

/// Fluent pipeline front-end; see the module docs.
pub struct Wizard {
    individuals: Option<(Source, IndividualsSpec)>,
    groups: Option<(Source, GroupsSpec)>,
    membership: Option<(Source, MembershipSpec)>,
    dates: Vec<i64>,
    units: Option<UnitStrategy>,
    min_shared: u32,
    cube: CubeBuilder,
}

impl Default for Wizard {
    fn default() -> Self {
        Self::new()
    }
}

impl Wizard {
    /// Start an empty wizard.
    pub fn new() -> Self {
        Wizard {
            individuals: None,
            groups: None,
            membership: None,
            dates: Vec::new(),
            units: None,
            min_shared: 1,
            cube: CubeBuilder::new(),
        }
    }

    /// Step 1: the `individuals` input from a CSV file.
    pub fn individuals_csv(mut self, path: impl AsRef<Path>, spec: IndividualsSpec) -> Self {
        self.individuals = Some((Source::Path(path.as_ref().to_path_buf()), spec));
        self
    }

    /// Step 1 (in-memory variant).
    pub fn individuals(mut self, rel: Relation, spec: IndividualsSpec) -> Self {
        self.individuals = Some((Source::InMemory(rel), spec));
        self
    }

    /// Step 2: the `groups` input from a CSV file.
    pub fn groups_csv(mut self, path: impl AsRef<Path>, spec: GroupsSpec) -> Self {
        self.groups = Some((Source::Path(path.as_ref().to_path_buf()), spec));
        self
    }

    /// Step 2 (in-memory variant).
    pub fn groups(mut self, rel: Relation, spec: GroupsSpec) -> Self {
        self.groups = Some((Source::InMemory(rel), spec));
        self
    }

    /// Step 3: the `membership` input from a CSV file.
    pub fn membership_csv(mut self, path: impl AsRef<Path>, spec: MembershipSpec) -> Self {
        self.membership = Some((Source::Path(path.as_ref().to_path_buf()), spec));
        self
    }

    /// Step 3 (in-memory variant).
    pub fn membership(mut self, rel: Relation, spec: MembershipSpec) -> Self {
        self.membership = Some((Source::InMemory(rel), spec));
        self
    }

    /// Step 4 (optional): snapshot dates for temporal analysis.
    pub fn dates(mut self, dates: Vec<i64>) -> Self {
        self.dates = dates;
        self
    }

    /// Step 5: the unit strategy (scenario).
    pub fn units(mut self, units: UnitStrategy) -> Self {
        self.units = Some(units);
        self
    }

    /// Projection threshold: minimum shared individuals/groups per edge.
    pub fn min_shared(mut self, w: u32) -> Self {
        self.min_shared = w;
        self
    }

    /// Cube parameter: minimum cell population.
    pub fn min_support(mut self, s: u64) -> Self {
        self.cube = self.cube.min_support(s);
        self
    }

    /// Cube parameter: materialization strategy.
    pub fn materialize(mut self, m: Materialize) -> Self {
        self.cube = self.cube.materialize(m);
        self
    }

    /// Cube parameter: parallel histogram evaluation.
    pub fn parallel(mut self, on: bool) -> Self {
        self.cube = self.cube.parallel(on);
        self
    }

    /// Cube parameter: the measure subset to fold per cell (defaults to
    /// the full six-index suite).
    pub fn measures(mut self, measures: scube_segindex::MeasureSet) -> Self {
        self.cube = self.cube.measures(measures);
        self
    }

    /// Cube parameter: a cube that is only reported, never saved, keeps no
    /// maintenance store (see [`CubeBuilder::report_only`]).
    pub fn report_only(mut self, on: bool) -> Self {
        self.cube = self.cube.report_only(on);
        self
    }

    /// Assemble and validate the dataset (steps 1–4).
    pub fn dataset(&self) -> Result<Dataset> {
        let (ind_src, ind_spec) = self.individuals.as_ref().ok_or_else(|| {
            ScubeError::InvalidParameter("wizard: individuals input missing".into())
        })?;
        let (grp_src, grp_spec) = self
            .groups
            .as_ref()
            .ok_or_else(|| ScubeError::InvalidParameter("wizard: groups input missing".into()))?;
        let (mem_src, mem_spec) = self.membership.as_ref().ok_or_else(|| {
            ScubeError::InvalidParameter("wizard: membership input missing".into())
        })?;
        Dataset::new(
            ind_src.load("individuals")?,
            ind_spec.clone(),
            grp_src.load("groups")?,
            grp_spec.clone(),
            &mem_src.load("membership")?,
            mem_spec,
            self.dates.clone(),
        )
    }

    fn config(&self) -> Result<ScubeConfig> {
        let units = self
            .units
            .clone()
            .ok_or_else(|| ScubeError::InvalidParameter("wizard: unit strategy missing".into()))?;
        Ok(ScubeConfig { units, min_shared: self.min_shared, cube: self.cube })
    }

    /// Final step: run the pipeline.
    pub fn run(&self) -> Result<ScubeResult> {
        run(&self.dataset()?, &self.config()?)
    }

    /// Final step (temporal): one run per snapshot date.
    pub fn run_snapshots(&self) -> Result<Vec<(i64, ScubeResult)>> {
        run_snapshots(&self.dataset()?, &self.config()?)
    }

    /// Final step: run and write the report directory (the wizard's
    /// "finish and open the output" action).
    pub fn run_and_write(&self, out_dir: impl AsRef<Path>) -> Result<ScubeResult> {
        let result = self.run()?;
        Visualizer::new(out_dir.as_ref()).write_all(&result)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_assignment::ClusteringMethod;

    fn rel(cols: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::new(cols.iter().map(|s| s.to_string()).collect()).unwrap();
        for row in rows {
            r.push_row(row.iter().map(|s| s.to_string()).collect()).unwrap();
        }
        r
    }

    fn wizard() -> Wizard {
        Wizard::new()
            .individuals(
                rel(&["id", "gender"], &[&["d1", "F"], &["d2", "M"]]),
                IndividualsSpec::new("id").sa("gender"),
            )
            .groups(rel(&["id", "sector"], &[&["c1", "edu"]]), GroupsSpec::new("id").ca("sector"))
            .membership(
                rel(&["dir", "comp"], &[&["d1", "c1"], &["d2", "c1"]]),
                MembershipSpec::new("dir", "comp"),
            )
    }

    #[test]
    fn runs_when_complete() {
        let result = wizard()
            .units(UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents))
            .run()
            .unwrap();
        assert!(!result.cube.is_empty());
        assert_eq!(result.stats.n_individuals, 2);
    }

    #[test]
    fn missing_steps_reported() {
        let err = Wizard::new().run().unwrap_err();
        assert!(err.to_string().contains("individuals input missing"));
        let err = wizard().run().unwrap_err();
        assert!(err.to_string().contains("unit strategy missing"));
    }

    #[test]
    fn run_and_write_produces_reports() {
        let dir = std::env::temp_dir().join(format!("scube_wizard_test_{}", std::process::id()));
        let result = wizard()
            .units(UnitStrategy::GroupAttribute("sector".into()))
            .run_and_write(&dir)
            .unwrap();
        assert!(!result.cube.is_empty());
        assert!(dir.join("cube.csv").exists());
        assert!(dir.join("summary.md").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_file_sources_work() {
        let dir = std::env::temp_dir().join(format!("scube_wizard_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        rel(&["id", "gender"], &[&["d1", "F"], &["d2", "M"]])
            .write_csv_path(dir.join("ind.csv"))
            .unwrap();
        rel(&["id", "sector"], &[&["c1", "edu"]]).write_csv_path(dir.join("grp.csv")).unwrap();
        rel(&["dir", "comp"], &[&["d1", "c1"], &["d2", "c1"]])
            .write_csv_path(dir.join("mem.csv"))
            .unwrap();
        let result = Wizard::new()
            .individuals_csv(dir.join("ind.csv"), IndividualsSpec::new("id").sa("gender"))
            .groups_csv(dir.join("grp.csv"), GroupsSpec::new("id").ca("sector"))
            .membership_csv(dir.join("mem.csv"), MembershipSpec::new("dir", "comp"))
            .units(UnitStrategy::GroupAttribute("sector".into()))
            .run()
            .unwrap();
        assert_eq!(result.stats.n_individuals, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
