"""Reference POS tagging, as tag() was written before it became a batched
call over compiled tables: per token, build the 14 feature strings and sum
their weights through the model's dict of dicts. The feature helpers are
copied here too, so the batched tagger is checked against today's features
and not against whatever postag's helpers say. Tests compare tag_batch
against this."""

from hatetriage.postag import TagModel

START = ("-START-", "-START2-")
END = ("-END-", "-END2-")


def _normalize(word: str) -> str:
    if "-" in word and word[0] != "-":
        return "!HYPHEN"
    if word.isdigit() and len(word) == 4:
        return "!YEAR"
    if word and word[0].isdigit():
        return "!DIGITS"
    return word.lower()


def _features(i: int, word: str, context: list[str], prev: str, prev2: str) -> list[str]:
    c = i + 2
    return [
        "bias",
        "suffix " + word[-3:],
        "prefix " + word[:3],
        "prev tag " + prev,
        "prev2 tag " + prev2,
        "prev tags " + prev + " " + prev2,
        "word " + context[c],
        "prev tag+word " + prev + " " + context[c],
        "prev word " + context[c - 1],
        "prev suffix " + context[c - 1][-3:],
        "prev2 word " + context[c - 2],
        "next word " + context[c + 1],
        "next suffix " + context[c + 1][-3:],
        "next2 word " + context[c + 2],
    ]


def reference_tag(model: TagModel, tokens: list[str]) -> list[str]:
    if not tokens:
        return []
    context = list(START) + [_normalize(w) for w in tokens] + list(END)
    output = []
    prev, prev2 = START
    for i, token in enumerate(tokens):
        chosen = model.tagdict.get(token.lower())
        if chosen is None:
            feats = _features(i, token.lower(), context, prev, prev2)
            scores: dict[str, float] = {}
            for feature in feats:
                per_tag = model.weights.get(feature)
                if not per_tag:
                    continue
                for t, weight in per_tag.items():
                    scores[t] = scores.get(t, 0.0) + weight
            chosen = min(model.tagset, key=lambda t: (-scores.get(t, 0.0), t))
        output.append(chosen)
        prev2, prev = prev, chosen
    return output
