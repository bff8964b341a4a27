//! Property-based parity tests for the cost-based join optimizer (PR 6):
//! random 2–5-table join plans must produce bitwise-identical results under
//! the as-written order (`join_reordering` and `cost_based_build_side` off:
//! no reordering, no build-side selection) and the cost-based order, including row multiplicity
//! under duplicate keys and NaN float join keys, and the `Optimizer` must
//! preserve the plan's output schema.
//!
//! The logical reorder pins the as-written leftmost leaf as the probe root,
//! but the physical build-side swap legitimately permutes output rows (the
//! probe side drives emission order), so rows are compared as canonically
//! sorted multisets — bit-exact within each row.

use proptest::prelude::*;
use raven::prelude::*;
use raven_relational::{ExecutionContext, Executor, Optimizer, OptimizerOptions};

/// Render one row of a batch with bit-exact float encoding so sorting and
/// comparing strings is a bitwise row comparison.
fn canonical_rows(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = (0..batch.num_rows())
        .map(|r| {
            batch
                .columns()
                .iter()
                .map(|c| match c.as_ref() {
                    Column::Int64(v) => format!("i{}", v[r]),
                    Column::Float64(v) => format!("f{:016x}", v[r].to_bits()),
                    Column::Utf8(v) => format!("s{}", v[r]),
                    Column::Boolean(v) => format!("b{}", v[r]),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    reorder: bool,
    cost_based_build_side: bool,
) -> (Batch, Vec<String>) {
    let optimizer = Optimizer::with_options(OptimizerOptions {
        join_reordering: reorder,
        ..Default::default()
    });
    let optimized = optimizer.optimize(plan, catalog).expect("optimize");
    let ctx = ExecutionContext {
        cost_based_build_side,
        ..ExecutionContext::default()
    };
    let batch = Executor::new()
        .execute(&optimized, catalog, &ctx)
        .expect("execute");
    let rows = canonical_rows(&batch);
    (batch, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random join chains: a fact table joined against 1–4 dimension tables,
    /// with deliberately small key domains (duplicate keys on both sides →
    /// row multiplication) and one float-keyed dimension whose keys include
    /// NaN (never matches, in both modes alike).
    #[test]
    fn random_join_chains_are_order_invariant(
        fact_rows in 20usize..120,
        n_dims in 1usize..5,
        key_range in 2i64..6,
        nan_share in 0u32..3,
        filtered in 0u32..2,
        threshold in 0.0f64..100.0,
        seed in 0u64..1_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut catalog = Catalog::new();

        let mut fact = TableBuilder::new("fact")
            .add_i64("id", (0..fact_rows as i64).collect())
            .add_f64(
                "v0",
                (0..fact_rows).map(|_| rng.gen_range(0.0..100.0)).collect(),
            );
        // integer FK columns with duplicates; the last dimension joins on a
        // float key where `nan_share`/10 of fact keys are NaN
        for d in 0..n_dims {
            if d == n_dims - 1 {
                let col: Vec<f64> = (0..fact_rows)
                    .map(|_| {
                        if rng.gen_range(0u32..10) < nan_share {
                            f64::NAN
                        } else {
                            rng.gen_range(0..key_range) as f64
                        }
                    })
                    .collect();
                fact = fact.add_f64(&format!("fk{d}"), col);
            } else {
                let col: Vec<i64> =
                    (0..fact_rows).map(|_| rng.gen_range(0..key_range)).collect();
                fact = fact.add_i64(&format!("fk{d}"), col);
            }
        }
        catalog.register(fact.build().unwrap());

        let mut plan = LogicalPlan::scan("fact");
        for d in 0..n_dims {
            let dim_rows = rng.gen_range(3usize..15);
            let name = format!("dim{d}");
            let mut dim = TableBuilder::new(&name);
            if d == n_dims - 1 {
                // float keys with duplicates and a NaN row of their own
                let col: Vec<f64> = (0..dim_rows)
                    .map(|i| {
                        if i == 0 && nan_share > 0 {
                            f64::NAN
                        } else {
                            rng.gen_range(0..key_range) as f64
                        }
                    })
                    .collect();
                dim = dim.add_f64(&format!("k{d}"), col);
            } else {
                let col: Vec<i64> =
                    (0..dim_rows).map(|_| rng.gen_range(0..key_range)).collect();
                dim = dim.add_i64(&format!("k{d}"), col);
            }
            dim = dim.add_f64(
                &format!("w{d}"),
                (0..dim_rows).map(|_| rng.gen_range(0.0..1.0)).collect(),
            );
            catalog.register(dim.build().unwrap());
            plan = plan.join(
                LogicalPlan::scan(&name),
                &format!("fk{d}"),
                &format!("k{d}"),
            );
        }
        if filtered == 1 {
            plan = plan.filter(col("v0").lt(lit(threshold)));
        }

        // the optimizer must preserve the plan's output schema
        let optimized = Optimizer::new().optimize(&plan, &catalog).unwrap();
        prop_assert_eq!(
            plan.schema(&catalog).unwrap().names(),
            optimized.schema(&catalog).unwrap().names()
        );

        let (asis_batch, asis_rows) = run(&plan, &catalog, false, false);
        let (cost_batch, cost_rows) = run(&plan, &catalog, true, true);
        prop_assert_eq!(
            asis_batch.schema().names(),
            cost_batch.schema().names(),
            "both modes must produce the same output schema"
        );
        prop_assert_eq!(
            asis_rows,
            cost_rows,
            "as-written and cost-based plans must agree bitwise as row multisets"
        );
    }
}
