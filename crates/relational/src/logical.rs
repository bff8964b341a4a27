//! Logical query plans.
//!
//! The plan shape mirrors what the paper's prediction queries need: scans of
//! (partitioned) tables, filters, projections, multi-way equi-joins, and a
//! final aggregate. The ML part of a prediction query is *not* represented
//! here — it lives either in the unified IR (`raven-ir`) before optimization,
//! or, after MLtoSQL, as ordinary [`Expr`]s inside a projection.

use crate::catalog::Catalog;
use crate::error::{RelationalError, Result};
use crate::eval::expr_data_type;
use crate::expr::{AggregateFunction, Expr};
use raven_columnar::{DataType, Field, Schema};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One aggregate in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateExpr {
    /// Aggregate function to apply.
    pub func: AggregateFunction,
    /// Argument expression (ignored for `COUNT(*)`, pass any column).
    pub arg: Expr,
    /// Output column name.
    pub alias: String,
}

/// A logical relational plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogicalPlan {
    /// Scan a named table, optionally projecting a subset of columns and
    /// applying pushed-down conjunctive filters.
    Scan {
        table: String,
        projection: Option<Vec<String>>,
        filters: Vec<Expr>,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        predicate: Expr,
        input: Box<LogicalPlan>,
    },
    /// Compute output columns from expressions.
    Projection {
        exprs: Vec<Expr>,
        input: Box<LogicalPlan>,
    },
    /// Inner equi-join on a single key pair.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_key: String,
        right_key: String,
    },
    /// Group-by aggregation (empty `group_by` = global aggregate).
    Aggregate {
        group_by: Vec<String>,
        aggregates: Vec<AggregateExpr>,
        input: Box<LogicalPlan>,
    },
    /// Keep the first `n` rows.
    Limit { n: usize, input: Box<LogicalPlan> },
}

impl LogicalPlan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            projection: None,
            filters: vec![],
        }
    }

    /// Wrap in a filter.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            predicate,
            input: Box::new(self),
        }
    }

    /// Wrap in a projection.
    pub fn project(self, exprs: Vec<Expr>) -> LogicalPlan {
        LogicalPlan::Projection {
            exprs,
            input: Box::new(self),
        }
    }

    /// Join with another plan on `left_key = right_key`.
    pub fn join(self, right: LogicalPlan, left_key: &str, right_key: &str) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.to_string(),
            right_key: right_key.to_string(),
        }
    }

    /// Wrap in an aggregate.
    pub fn aggregate(self, group_by: Vec<String>, aggregates: Vec<AggregateExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input: Box::new(self),
        }
    }

    /// Wrap in a limit.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            n,
            input: Box::new(self),
        }
    }

    /// The input plans of this node.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Compute the output schema of the plan against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            LogicalPlan::Scan {
                table, projection, ..
            } => {
                let t = catalog.table(table)?;
                let schema = t.schema().as_ref().clone();
                match projection {
                    None => Ok(schema),
                    Some(cols) => {
                        let indices = cols
                            .iter()
                            .map(|c| {
                                schema.index_of(c).map_err(|_| {
                                    RelationalError::ColumnNotFound(format!("{table}.{c}"))
                                })
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(schema.project(&indices)?)
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let schema = input.schema(catalog)?;
                for c in predicate.referenced_columns() {
                    if !schema.contains(&c) {
                        return Err(RelationalError::ColumnNotFound(c));
                    }
                }
                Ok(schema)
            }
            LogicalPlan::Limit { input, .. } => input.schema(catalog),
            LogicalPlan::Projection { exprs, input } => {
                let in_schema = input.schema(catalog)?;
                for e in exprs {
                    for c in e.referenced_columns() {
                        if !in_schema.contains(&c) {
                            return Err(RelationalError::ColumnNotFound(c));
                        }
                    }
                }
                let lookup = |name: &str| in_schema.field_by_name(name).ok().map(|f| f.data_type());
                let fields = exprs
                    .iter()
                    .map(|e| Field::new(e.output_name(), expr_data_type(e, &lookup)))
                    .collect();
                Ok(Schema::new(fields)?)
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let ls = left.schema(catalog)?;
                let rs = right.schema(catalog)?;
                if !ls.contains(left_key) {
                    return Err(RelationalError::ColumnNotFound(left_key.clone()));
                }
                if !rs.contains(right_key) {
                    return Err(RelationalError::ColumnNotFound(right_key.clone()));
                }
                Ok(ls.merge(&rs, "r")?)
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => aggregate_schema(&input.schema(catalog)?, group_by, aggregates),
        }
    }

    /// All table names scanned by this plan.
    pub fn referenced_tables(&self) -> Vec<String> {
        match self {
            LogicalPlan::Scan { table, .. } => vec![table.clone()],
            _ => {
                let mut out = Vec::new();
                for i in self.inputs() {
                    out.extend(i.referenced_tables());
                }
                out
            }
        }
    }

    /// Render an indented EXPLAIN-style string.
    pub fn display_indent(&self) -> String {
        fn fmt_node(plan: &LogicalPlan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match plan {
                LogicalPlan::Scan {
                    table,
                    projection,
                    filters,
                } => {
                    out.push_str(&format!("{pad}Scan: {table}"));
                    if let Some(p) = projection {
                        out.push_str(&format!(" projection=[{}]", p.join(", ")));
                    }
                    if !filters.is_empty() {
                        let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                        out.push_str(&format!(" filters=[{}]", fs.join(" AND ")));
                    }
                    out.push('\n');
                }
                LogicalPlan::Filter { predicate, input } => {
                    out.push_str(&format!("{pad}Filter: {predicate}\n"));
                    fmt_node(input, indent + 1, out);
                }
                LogicalPlan::Projection { exprs, input } => {
                    let es: Vec<String> = exprs.iter().map(|e| e.output_name()).collect();
                    out.push_str(&format!("{pad}Projection: [{}]\n", es.join(", ")));
                    fmt_node(input, indent + 1, out);
                }
                LogicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                } => {
                    out.push_str(&format!("{pad}Join: {left_key} = {right_key}\n"));
                    fmt_node(left, indent + 1, out);
                    fmt_node(right, indent + 1, out);
                }
                LogicalPlan::Aggregate {
                    group_by,
                    aggregates,
                    input,
                } => {
                    let ags: Vec<String> = aggregates
                        .iter()
                        .map(|a| format!("{}({})", a.func, a.arg.output_name()))
                        .collect();
                    out.push_str(&format!(
                        "{pad}Aggregate: group_by=[{}] aggs=[{}]\n",
                        group_by.join(", "),
                        ags.join(", ")
                    ));
                    fmt_node(input, indent + 1, out);
                }
                LogicalPlan::Limit { n, input } => {
                    out.push_str(&format!("{pad}Limit: {n}\n"));
                    fmt_node(input, indent + 1, out);
                }
            }
        }
        let mut out = String::new();
        fmt_node(self, 0, &mut out);
        out
    }
}

/// The output schema of grouping `in_schema` by `group_by` and computing
/// `aggregates`: the group columns, then one column per aggregate (`Int64`
/// for `COUNT`, `Float64` otherwise).
pub(crate) fn aggregate_schema(
    in_schema: &Schema,
    group_by: &[String],
    aggregates: &[AggregateExpr],
) -> Result<Schema> {
    let mut fields = Vec::new();
    for g in group_by {
        fields.push(in_schema.field_by_name(g)?.clone());
    }
    for a in aggregates {
        let dt = match a.func {
            AggregateFunction::Count => DataType::Int64,
            _ => DataType::Float64,
        };
        fields.push(Field::new(a.alias.clone(), dt));
    }
    Ok(Schema::new(fields)?)
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_indent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use raven_columnar::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("patient_info")
                .add_i64("id", vec![1, 2])
                .add_f64("age", vec![30.0, 70.0])
                .add_i64("asthma", vec![1, 0])
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("blood_test")
                .add_i64("id", vec![1, 2])
                .add_f64("bpm", vec![60.0, 90.0])
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn scan_schema_and_projection() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info");
        assert_eq!(plan.schema(&c).unwrap().len(), 3);

        let plan = LogicalPlan::Scan {
            table: "patient_info".into(),
            projection: Some(vec!["age".into()]),
            filters: vec![],
        };
        assert_eq!(plan.schema(&c).unwrap().names(), vec!["age"]);

        let bad = LogicalPlan::Scan {
            table: "patient_info".into(),
            projection: Some(vec!["nope".into()]),
            filters: vec![],
        };
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn filter_validates_columns() {
        let c = catalog();
        let ok = LogicalPlan::scan("patient_info").filter(col("age").gt(lit(50.0)));
        assert!(ok.schema(&c).is_ok());
        let bad = LogicalPlan::scan("patient_info").filter(col("bmi").gt(lit(50.0)));
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn projection_schema_types() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").project(vec![
            col("age").mul(lit(2.0)).alias("age2"),
            col("asthma"),
            col("age").gt(lit(60.0)).alias("senior"),
        ]);
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["age2", "asthma", "senior"]);
        assert_eq!(s.field(0).unwrap().data_type(), DataType::Float64);
        assert_eq!(s.field(1).unwrap().data_type(), DataType::Int64);
        assert_eq!(s.field(2).unwrap().data_type(), DataType::Boolean);
    }

    #[test]
    fn join_schema_merges_and_validates() {
        let c = catalog();
        let plan =
            LogicalPlan::scan("patient_info").join(LogicalPlan::scan("blood_test"), "id", "id");
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["id", "age", "asthma", "r.id", "bpm"]);

        let bad =
            LogicalPlan::scan("patient_info").join(LogicalPlan::scan("blood_test"), "id", "wrong");
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn aggregate_schema() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").aggregate(
            vec!["asthma".into()],
            vec![AggregateExpr {
                func: AggregateFunction::Avg,
                arg: col("age"),
                alias: "avg_age".into(),
            }],
        );
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["asthma", "avg_age"]);
    }

    #[test]
    fn referenced_tables_and_display() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("asthma").eq(lit(1i64)))
            .project(vec![col("age")]);
        assert_eq!(
            plan.referenced_tables(),
            vec!["patient_info".to_string(), "blood_test".to_string()]
        );
        let display = plan.to_string();
        assert!(display.contains("Projection"));
        assert!(display.contains("Join"));
        assert!(plan.schema(&c).is_ok());
    }

    #[test]
    fn limit_preserves_schema() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").limit(1);
        assert_eq!(plan.schema(&c).unwrap().len(), 3);
    }
}
