//! Table catalog: the set of named tables a query can reference.

use crate::error::{RelationalError, Result};
use raven_columnar::{Table, TableStatistics};
use std::collections::HashMap;
use std::sync::Arc;

/// A catalog of named in-memory tables (the engine's "database").
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    epoch: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table under its own name.
    pub fn register(&mut self, table: Table) {
        self.epoch += 1;
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Register (or replace) a table under an explicit name.
    pub fn register_as(&mut self, name: impl Into<String>, table: Table) {
        self.epoch += 1;
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Drop a table. Bumps the epoch (a drop invalidates cached plans exactly
    /// like a registration does). Errors if the table does not exist so a
    /// journaled drop can never silently no-op during replay.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        match self.tables.remove(name) {
            Some(_) => {
                self.epoch += 1;
                Ok(())
            }
            None => Err(RelationalError::TableNotFound(name.to_string())),
        }
    }

    /// Monotonic version counter, bumped on every registration. The serving
    /// tier's plan cache compares epochs to detect that a cached statement
    /// was derived from a stale catalog.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restore the epoch counter during recovery. Durable warm restart
    /// (`raven-storage`) replays a snapshot + journal and must resume at the
    /// pre-crash epoch: if a restarted catalog re-counted from zero, cache
    /// keys minted before the crash (prepared plans, compiled models,
    /// persisted plan fingerprints) could collide with *different* content at
    /// the same epoch number. Recovery-only; never lower the epoch on a live
    /// catalog.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| RelationalError::TableNotFound(name.to_string()))
    }

    /// Whether the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Statistics for a table, when it exists.
    pub fn statistics(&self, name: &str) -> Option<TableStatistics> {
        self.tables.get(name).map(|t| t.statistics().clone())
    }

    /// Names of all registered tables (sorted for determinism).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether the given column is a unique key of the table (exact check via
    /// statistics: distinct count equals row count and no missing values).
    /// Used by join elimination.
    pub fn is_unique_key(&self, table: &str, column: &str) -> bool {
        self.tables
            .get(table)
            .and_then(|t| t.statistics().column(column).cloned())
            .map(|s| s.null_count == 0 && s.distinct_count == s.row_count && s.row_count > 0)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_columnar::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("patients")
                .add_i64("id", vec![1, 2, 3])
                .add_f64("age", vec![30.0, 40.0, 50.0])
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("tests")
                .add_i64("id", vec![1, 1, 2])
                .add_f64("result", vec![0.1, 0.2, 0.3])
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = catalog();
        assert!(c.contains("patients"));
        assert!(c.table("patients").is_ok());
        assert!(matches!(
            c.table("nope").unwrap_err(),
            RelationalError::TableNotFound(_)
        ));
        assert_eq!(c.table_names(), vec!["patients", "tests"]);
    }

    #[test]
    fn unique_key_detection() {
        let c = catalog();
        assert!(c.is_unique_key("patients", "id"));
        assert!(!c.is_unique_key("tests", "id"));
        assert!(!c.is_unique_key("patients", "age") || c.is_unique_key("patients", "age"));
        assert!(!c.is_unique_key("missing", "id"));
    }

    #[test]
    fn statistics_exposed() {
        let c = catalog();
        let s = c.statistics("patients").unwrap();
        assert_eq!(s.row_count, 3);
        assert!(c.statistics("nope").is_none());
    }

    #[test]
    fn epoch_bumps_on_every_registration() {
        let mut c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        c.register(
            TableBuilder::new("a")
                .add_i64("x", vec![1])
                .build()
                .unwrap(),
        );
        assert_eq!(c.epoch(), 1);
        // re-registering the same name still bumps (contents may differ)
        c.register(
            TableBuilder::new("a")
                .add_i64("x", vec![2])
                .build()
                .unwrap(),
        );
        assert_eq!(c.epoch(), 2);
        c.register_as(
            "b",
            TableBuilder::new("a")
                .add_i64("x", vec![3])
                .build()
                .unwrap(),
        );
        assert_eq!(c.epoch(), 3);
    }

    #[test]
    fn drop_table_bumps_epoch_and_errors_on_missing() {
        let mut c = catalog();
        let before = c.epoch();
        c.drop_table("patients").unwrap();
        assert!(!c.contains("patients"));
        assert_eq!(c.epoch(), before + 1);
        assert!(matches!(
            c.drop_table("patients").unwrap_err(),
            RelationalError::TableNotFound(_)
        ));
        assert_eq!(c.epoch(), before + 1, "failed drop must not bump");
    }

    #[test]
    fn restore_epoch_resumes_counter() {
        let mut c = Catalog::new();
        c.restore_epoch(41);
        assert_eq!(c.epoch(), 41);
        c.register(
            TableBuilder::new("a")
                .add_i64("x", vec![1])
                .build()
                .unwrap(),
        );
        assert_eq!(c.epoch(), 42);
    }

    #[test]
    fn register_as_alias() {
        let mut c = catalog();
        let t = TableBuilder::new("x")
            .add_i64("a", vec![1])
            .build()
            .unwrap();
        c.register_as("alias", t);
        assert!(c.contains("alias"));
    }
}
