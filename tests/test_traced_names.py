"""The spans perfbench traces: which of them name nothing in the package.

``perfbench/tracing.py`` skips a traced name that the package no longer
defines, so its span silently reads 0 calls. This pins the set of such dark
spans, so that removing or renaming another traced function fails here
instead of darkening its span.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TRACED_NAMES  # noqa: E402

# agents.act: a bundle no longer acts on its own; its Home acts for it
DARK = {"obs.encode_acceptor_obs", "obs.encode_offer_obs", "neural.sample", "agents.act"}


def test_only_the_known_spans_are_dark():
    dark = {name for owner, attr, name in TRACED_NAMES if owner.__dict__.get(attr) is None}
    assert dark == DARK
