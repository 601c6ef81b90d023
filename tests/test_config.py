"""Config table properties: generated configs and the shipped ones survive
a serialize -> parse -> serialize round trip unchanged, the shipped ones
serialize to the pinned texts in data/canonical, and README's config table
names every key."""

import glob
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ipfc import parse_config, serialize_config
from ipfc.harness import _SECTIONS

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CANONICAL_DIR = os.path.join(os.path.dirname(__file__), "data", "canonical")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SCHEMES = ("sav_cn", "sav_cn_sdc")

FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6).map(repr)
INT = st.integers(-1000, 1000).map(str)
# values are stripped on parsing, and '#' starts a comment
WORD = st.text(alphabet="abcXYZ019._-/ =", max_size=10).map(str.strip)


def listof(element, min_size=0, max_size=4):
    return st.lists(element, min_size=min_size, max_size=max_size).map(" ".join)


def matrix(rows, cols):
    return st.lists(listof(FLOAT, cols, cols), min_size=rows, max_size=rows).map(" ; ".join)


@st.composite
def config_texts(draw):
    """Config text with every optional section and optional key present or
    absent, keys in random order within a section."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(d, 3))
    blocks = []

    def section(name, required, optional=None):
        lines = [f"{key} = {draw(s)}" for key, s in required.items()]
        lines += [f"{key} = {draw(s)}" for key, s in (optional or {}).items() if draw(st.booleans())]
        blocks.append("\n".join([f"[{name}]"] + draw(st.permutations(lines))))

    identity = st.just("identity")
    section(
        "projection",
        {
            "d": st.just(str(d)),
            "n": st.just(str(n)),
            "P": matrix(d, n) | identity if d == n else matrix(d, n),
            "B": matrix(n, n) | identity,
            "sizes": listof(st.sampled_from(["2", "4", "8"]), n, n),
        },
    )
    section(
        "model",
        {"eps": FLOAT, "alpha": FLOAT},
        {
            "q": listof(POSITIVE, 1, 3),
            "c1": FLOAT,
            "dealias": st.sampled_from(["true", "false", "yes", "off", "1"]),
        },
    )
    T = None
    if draw(st.booleans()):
        # valid for either scheme: SDC rejects sweeps < 0 and any block of
        # fewer than two intervals (nt = 1, or odd nt in blocks of 2)
        T = draw(st.floats(min_value=1e-6, max_value=1e6))
        section(
            "time",
            {"T": st.just(repr(T)), "nt": st.integers(2, 100).map(str)},
            {
                "scheme": st.sampled_from(SCHEMES),
                "sweeps": st.integers(0, 1000).map(str),
                "block": st.integers(3, 1000).map(str),
            },
        )
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["sine", "mode_list", "field_file"]))
        row = st.tuples(listof(INT, n, n), FLOAT, FLOAT).map(" ".join)
        keys = {"modes": st.lists(row, min_size=1, max_size=3).map(" ; ".join), "file": WORD}
        required = {"kind": st.just(kind)}
        if kind != "sine":
            name = "modes" if kind == "mode_list" else "file"
            required[name] = keys.pop(name)
        section("initial", required, {"amplitude": FLOAT, **keys})
    if draw(st.booleans()):
        # a run has no node past [time] T to write a later dump at
        late = None if T is None else T + 1e-9 * max(1.0, T)
        dump_times = listof(st.floats(max_value=late, allow_nan=False, allow_infinity=False).map(repr))
        section(
            "output",
            {},
            {"dir": WORD, "energy_csv": WORD, "dump_times": dump_times, "dump_prefix": WORD},
        )
    if draw(st.booleans()):
        section(
            "render",
            {
                "window": listof(FLOAT, 2 * d, 2 * d),
                "resolution": listof(st.integers(1, 1000).map(str), d, d),
            },
            # at 1 or more the floor drops every mode
            {"floor_rel": st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(repr)},
        )
    if draw(st.booleans()):
        # at 1 or more the threshold drops every mode
        threshold = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True).map(repr)
        section("spectrum", {}, {"threshold_rel": threshold})
    if draw(st.booleans()):
        # with [time], the SDC runs need at least two intervals per block
        nts = draw(st.lists(st.integers(1 if T is None else 2, 64), min_size=1, max_size=4))
        section(
            "convergence",
            {
                "nt_list": st.just(" ".join(map(str, nts))),
                "reference_nt": st.integers(max(nts) + 1, 200).map(str),
            },
            {"schemes": listof(st.sampled_from(SCHEMES), 0, 2), "csv": WORD},
        )
    if draw(st.booleans()):
        section(
            "scales",
            {"m_list": listof(st.integers(1, 5).map(str))},
            {
                "s": FLOAT, "amplitude": FLOAT, "jitter": FLOAT, "noise": FLOAT,
                "seed": INT, "ring_tol": FLOAT,
            },
        )
    return "\n\n".join(draw(st.permutations(blocks))) + "\n"


def values(cfg):
    """Every field of every section, matrices as nested lists."""
    return {
        name: None if section is None else {
            key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in vars(section).items()
        }
        for name, section in vars(cfg).items()
    }


@given(config_texts())
def test_serialize_parse_round_trip(text):
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    again = parse_config(canonical)
    assert serialize_config(again) == canonical
    assert values(again) == values(cfg)  # no value is lost in the text form


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))), ids=os.path.basename
)
def test_shipped_configs_canonical_text(path):
    # the canonical text of every shipped config is pinned byte for byte,
    # so a change to key order, defaults or number formatting shows here
    with open(path, "r", encoding="utf-8") as fh:
        canonical = serialize_config(parse_config(fh.read()))
    with open(os.path.join(CANONICAL_DIR, os.path.basename(path)), "r", encoding="utf-8") as fh:
        assert canonical == fh.read()
    assert serialize_config(parse_config(canonical)) == canonical


def test_readme_config_table_names_every_key():
    # one row per section, `[name]` in its first cell; every parsed key is
    # backticked in its own section's row
    with open(README, "r", encoding="utf-8") as fh:
        rows = dict(re.findall(r"^\| `\[(\w+)\]` \|(.*)$", fh.read(), flags=re.M))
    assert set(rows) == set(_SECTIONS)
    missing = {
        name: [key for key in keys if f"`{key}`" not in rows[name]]
        for name, (_, keys) in _SECTIONS.items()
    }
    assert missing == {name: [] for name in _SECTIONS}
