//! Statistics-based partition pruning (paper §4.2): the executor skips a
//! partition whose min/max statistics prove the scan's conjunction
//! unsatisfiable. The decision is [`crate::domain`]'s comparison semantics;
//! this module names the entry points and pins their decisions in tests.

pub use crate::domain::{may_satisfy, may_satisfy_all};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use raven_columnar::{TableBuilder, TableStatistics};

    fn stats(ages: Vec<f64>) -> TableStatistics {
        let n = ages.len();
        TableBuilder::new("t")
            .add_f64("age", ages)
            .add_i64("k", vec![1; n])
            .build_batch()
            .unwrap()
            .statistics()
            .unwrap()
    }

    #[test]
    fn out_of_range_comparisons_prune() {
        let s = stats(vec![10.0, 20.0, 30.0]);
        assert!(!may_satisfy(&col("age").gt(lit(30.0)), &s));
        assert!(!may_satisfy(&col("age").gt_eq(lit(31.0)), &s));
        assert!(!may_satisfy(&col("age").lt(lit(10.0)), &s));
        assert!(!may_satisfy(&col("age").eq(lit(99.0)), &s));
        assert!(!may_satisfy(&lit(99.0).lt(col("age")), &s));
    }

    #[test]
    fn in_range_comparisons_keep() {
        let s = stats(vec![10.0, 20.0, 30.0]);
        assert!(may_satisfy(&col("age").gt(lit(15.0)), &s));
        assert!(may_satisfy(&col("age").eq(lit(20.0)), &s));
        assert!(may_satisfy(&col("age").lt_eq(lit(10.0)), &s));
        assert!(may_satisfy(&lit(15.0).lt(col("age")), &s));
    }

    #[test]
    fn conjunction_and_disjunction() {
        let s = stats(vec![10.0, 20.0]);
        // AND with one impossible side prunes
        let p = col("age").gt(lit(50.0)).and(col("k").eq(lit(1i64)));
        assert!(!may_satisfy(&p, &s));
        // OR with one possible side keeps
        let p = col("age").gt(lit(50.0)).or(col("age").lt(lit(15.0)));
        assert!(may_satisfy(&p, &s));
        // OR with both impossible prunes
        let p = col("age").gt(lit(50.0)).or(col("age").lt(lit(5.0)));
        assert!(!may_satisfy(&p, &s));
    }

    #[test]
    fn negation_flips() {
        let s = stats(vec![10.0, 20.0]);
        // NOT (age > 50) is always true here -> keep
        assert!(may_satisfy(&col("age").gt(lit(50.0)).negate(), &s));
        // NOT (age <= 50) is always false -> prune
        assert!(!may_satisfy(&col("age").lt_eq(lit(50.0)).negate(), &s));
    }

    #[test]
    fn unknown_shapes_are_conservative() {
        let s = stats(vec![10.0, 20.0]);
        // column-vs-column comparisons are not analyzed: keep
        assert!(may_satisfy(&col("age").gt(col("k")), &s));
        // unknown column: keep
        assert!(may_satisfy(&col("nope").gt(lit(1.0)), &s));
        assert!(may_satisfy_all(
            &[col("age").gt(lit(15.0)), col("nope").eq(lit(0.0))],
            &s
        ));
    }

    #[test]
    fn missing_values_widen_outcomes_but_never_misprune() {
        let s = stats(vec![10.0, f64::NAN, 30.0]);
        // range is [10, 30]; NaN rows evaluate comparisons to false, which
        // must not cause a prune of possible-true predicates
        assert!(may_satisfy(&col("age").gt(lit(15.0)), &s));
        assert!(!may_satisfy(&col("age").gt(lit(30.0)), &s));
        // NOT(cmp) over a column with missing values must stay conservative:
        // NaN makes the inner cmp false, so NOT may be true
        assert!(may_satisfy(&col("age").gt_eq(lit(0.0)).negate(), &s));
    }
}

#[cfg(test)]
mod review_repro {
    use super::*;
    use crate::expr::{col, lit};
    use raven_columnar::TableBuilder;

    #[test]
    fn noteq_with_nan_must_not_prune() {
        // partition: non-missing values are all 5.0, plus one NaN row
        let s = TableBuilder::new("t")
            .add_f64("age", vec![5.0, f64::NAN])
            .build_batch()
            .unwrap()
            .statistics()
            .unwrap();
        // evaluator semantics: NaN != 5.0 is TRUE, so the NaN row satisfies
        // the predicate and the partition must be kept
        assert!(may_satisfy(&col("age").not_eq(lit(5.0)), &s));
    }
}
