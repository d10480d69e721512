"""
Cross-validation, grid search, and error buckets
================================================

Compare model configurations with leakage-free 5-fold cross-validation,
then bucket the winner's mistakes by confusion cell.
"""

import importlib.resources

from hatetriage.corpus import parse_corpus
from hatetriage.evalharness import (
    error_report,
    error_report_text,
    grid_report_text,
    grid_search,
)
from hatetriage.lexfeat import SentimentLexicon
from hatetriage.pipeline import (
    FeatureSettings,
    ModelConfig,
    build_grid,
    extract_ingredients,
    fit_config_model,
    fit_features,
    model_input_matrix,
)
from hatetriage.postag import load_model

data = importlib.resources.files("hatetriage.data")
records = parse_corpus(data.joinpath("toy_corpus.csv").read_bytes())
tagger = load_model(data.joinpath("pos_model.txt").read_bytes())
lexicon = SentimentLexicon.from_text(
    data.joinpath("sentiment_lexicon.tsv").read_text(encoding="utf-8")
)
texts = [r.text for r in records]
y = [int(r.label) for r in records]
ingredients = extract_ingredients(texts, tagger, lexicon)
settings = FeatureSettings(min_df=2)

# one configuration, five folds: every fold refits vocabularies and
# selection on its own training rows, so nothing leaks from held-out data
(cv,) = grid_search([ModelConfig("logreg", "l2", 1.0)], ingredients, y, features=settings).cells
print(f"logreg l2 C=1: mean weighted F1 {cv.mean_weighted_f1:.4f} "
      f"(std {cv.std_weighted_f1:.4f})")

# a small grid over model kind and regularization strength
grid = build_grid(["logreg", "svm"], ["l1", "l2"], [0.1, 1.0], ["uniform"])
result = grid_search(grid, ingredients, y, features=settings)
print("\n" + grid_report_text(result))

# refit the winner on everything and bucket its confusions
best = result.best
fitted = fit_features(ingredients, y, settings)
X = model_input_matrix(best.kind, fitted, ingredients)
model = fit_config_model(best, X, y)
names = fitted.input_names(best.kind)
report = error_report(model, X, names, records, top_n=3)
print(error_report_text(report))
