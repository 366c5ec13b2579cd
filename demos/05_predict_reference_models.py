"""Out-of-the-box prediction with the shipped reference models.

The package bundles subset models fitted on a 62-algorithm corpus of
published 57-game Atari results, so summary-score estimates only need raw
scores for a handful of games. Here they run against the bundled synthetic
demo table (which carries its own true summaries for comparison).
"""
from benchsel import fixtures
from benchsel.data import load_scores_with_values
from benchsel.predict import make_report, predict_summary, rebase_scores

norms = fixtures.load_normalization()
table, values = load_scores_with_values(fixtures.demo_scores_path(),
                                        ("median57",))

for name in ("atari1", "atari3", "atari5", "atari10"):
    model, doc = fixtures.load_subset_model(name)
    print(f"{name}: {len(model.environment_ids)} games, "
          f"fit r_squared={model.stats.r_squared}")

model, _ = fixtures.load_subset_model("atari5")
reports = []
for i, algorithm in enumerate(table.algorithm_ids):
    raw_row = {env: x for env, x in zip(table.environment_ids,
                                        table.scores[i])}
    raw_row = {k: v for k, v in raw_row.items() if v == v}  # drop NaN
    try:
        predicted = predict_summary(model, raw_row, norms)
    except Exception as exc:
        print(f"  {algorithm}: skipped ({exc})")
        continue
    reports.append(make_report(algorithm, predicted,
                               true_summary=values["median57"][algorithm]))

print(f"\n{'algorithm':<16}{'true':>8}{'predicted':>11}{'rel err':>9}")
for r in reports[::4]:
    print(f"{r.algorithm_id:<16}{r.true_summary:>8.1f}"
          f"{r.predicted_summary:>11.1f}{r.relative_error:>9.1%}")

# comparisons against a baseline are often what actually matters
baseline = reports[-1].algorithm_id
print(f"\nrebased to {baseline}:")
for r in rebase_scores(reports, baseline)[::4]:
    print(f"{r.algorithm_id:<16} true {r.true_summary:>5.2f}x   "
          f"predicted {r.predicted_summary:>5.2f}x")
