"""The figures the README quotes come from a fresh run, not from memory."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tbqkd import binary_entropy, load_preset, simulate_and_analyze

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README section under `## title`, its whitespace runs joined
    into single spaces."""
    text = README.read_text().split(f"\n## {title}\n", 1)[1]
    return " ".join(text.split("\n## ", 1)[0].split())


def quoted(text: str, pattern: str) -> str:
    """The figure that pattern's group captures in text."""
    match = re.search(pattern, text)
    assert match, f"the README no longer quotes {pattern!r}"
    return match.group(1)


@pytest.mark.slow
def test_known_limitations_quote_a_fresh_14db_block():
    outcome, report = simulate_and_analyze(load_preset("link-14db"))
    privacy = report.s_z1_lower * (1.0 - binary_entropy(report.phi_z_upper))
    figure = r"(\d[\d.]*\d|\d)"
    limits = section("Known limitations")
    # "Reading the report" quotes the block's n_x and phi_Z as well
    for text in (section("Reading the report"), limits):
        assert quoted(text, r"n_x = " + figure) == str(outcome.tallies.n_x)
        assert quoted(text, r"phi_Z = " + figure) == f"{report.phi_z_upper:.3f}"
    assert quoted(limits, r"s_x1_lower = " + figure) == f"{report.s_x1_lower:.0f}"
    assert quoted(limits, r"v_x1_upper = " + figure) == f"{report.v_x1_upper:.0f}"
    assert quoted(limits, r"about " + figure + "k bits") == f"{privacy / 1e3:.1f}"
    assert quoted(limits, r"leakage of " + figure + "k bits") == (
        f"{report.lambda_ec / 1e3:.1f}"
    )
