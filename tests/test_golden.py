"""Golden CLI outputs: the SHA-256 of the exit code and stdout of fixed
runs, so a refactor that changes one byte of a verdict, a witness or a
Massey representative fails here.

Each digest is of "<exit code>\\n<stdout>" with HERMFORM_ASCII unset.
The formality sweep covers every `catalog.default_instances()` entry,
the n = 5 models included.  A digest changes only with an intended
change of output; recompute it then and say why in the change.
"""

import hashlib
import io

import pytest

from hermform import catalog
from hermform.cli import run

FORMALITY = {
    "torus:1":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "torus:2":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "torus:3":
        "65174c37b68afa38080192486351be3ab10b2dd6450e410e9f10e76269347bc3",
    "iwasawa":
        "1c2765c9c5b1a7b7a60a5671f2d2d44178041e8aa675071d050acf50a33f6a4f",
    "example1:invariant":
        "2540946e4f1fdce1eb1ec9bce93c003fb18e2ef2482ab1271b3035dbc8a78f8e",
    "ce:u=0,v=1":
        "8279cb6738f4327b3e320a80c7ab4af37355ed80c3ec2f0076871703d06de164",
    "ce:u=1,v=1":
        "5e4de3e9791eb9574f086f85df1285d9681e19166c1c894ab21baf738c53ba6a",
    "ce:u=1,v=2":
        "1c9e5545df0340d9b9aa9eff59ab1f1bbc9ecd30016ba98cb3311a76a9896517",
    "nakamura:III.2":
        "1c2765c9c5b1a7b7a60a5671f2d2d44178041e8aa675071d050acf50a33f6a4f",
    "nakamura:III.3":
        "6c4633aa8de5a3626eadbd2f6c0409769f7258e5ed410e2eb52945b6742ec972",
    "nakamura:IV.2":
        "6b711c325f26895c8ccd26bd8d864755c14de49d5d55bcafe1cc40111488afe1",
    "nakamura:IV.3":
        "85aa484557a962bdb5f0923c8b441529ec8ce0b914d1f935aa7bf79692c01937",
    "nakamura:IV.4":
        "34ef4de0de5eecab0460036802e235d18ac9b96d553eaccfc7f2b2a9c68ac933",
    "nakamura:IV.6":
        "0bf05cedbac7cdba4cb9aca47b6aca1361dd5d08c979f146952684375a18bd07",
    "nakamura:V.10":
        "2b79045281120956f1610f59e2b49ac15d82b82163544a63d38f740ef7a7132e",
    "nakamura:V.12":
        "8ae111e3c8387198233028fe92c0342ec3ea776badc19ffd31db965d90e8781b",
    "nakamura:V.15":
        "54a9fb1975363bccb7fbb838fc85aa7811421c164f77d4dd5a9522bf48fe2ca9",
    "nakamura:V.2":
        "c33afe08d83aef82311407a576a275ab8ad6cdef9b16c2dd324a113a11dde93b",
    "nakamura:V.3":
        "7a070f69cb77afd1808c43541592609e018e23fe20fb0926b9bf5e8aab46bbc3",
    "nakamura:V.4":
        "02791bf921ece82ae936c8722bc9e1c4959a58d90920c22a52cba0c003f54e16",
    "nakamura:V.5":
        "57cf1a97e024eab3c90a43c93b16537a1dbd65e32fe3947505450148f15793ff",
    "nakamura:V.6":
        "bbb47fa3584f33b46e83ffc82a34129161885d7c858cb13bfe11a6b9d6b18234",
    "nakamura:V.7":
        "aaee14f559609a8e8fdf2e214f0801802f8085ea24e2704d59b6c042ce7bcdca",
    "nakamura:V.8":
        "2b79045281120956f1610f59e2b49ac15d82b82163544a63d38f740ef7a7132e",
    "nakamura:V.9":
        "001c298d122540794ad9bd27fb379bfcec641d83c3414b7b4fa5e3ef4babf961",
    "nakamura:V.17[alpha=1,beta=1]":
        "3ee4236b63dfcfc55631b4481753296cc451213af7a4644597e86f8094b528cf",
    "nakamura:V.17[alpha=1,beta=-1]":
        "3ee4236b63dfcfc55631b4481753296cc451213af7a4644597e86f8094b528cf",
}

OTHER = {
    ("verify-appendix",):
        "725478966efd34f7d2601d7f354e400952570f69defda96fa911c6621fad85c6",
    # the massey example of the README
    ("massey", "--model", "iwasawa", "--a", "p1*p2", "--b", "q1*q2",
     "--c", "q1*q2"):
        "fc57ac1a39fcb55610816f14e14ba0cea074ad539ef1cf80755e024c8bf3425c",
}


def _key(ident, params):
    return ident + ("[%s]" % ",".join("%s=%s" % kv
                                      for kv in sorted(params.items()))
                    if params else "")


def _formality_runs():
    for ident, params in catalog.default_instances():
        argv = ["formality", "--model", ident, "--notion", "all"]
        for kv in sorted((params or {}).items()):
            argv += ["--param", "%s=%s" % kv]
        yield _key(ident, params), argv


def _digest(argv, monkeypatch):
    monkeypatch.delenv("HERMFORM_ASCII", raising=False)
    out = io.StringIO()
    code = run(list(argv), out=out, err=io.StringIO())
    text = "%d\n%s" % (code, out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_default_instance_has_a_formality_digest():
    assert [key for key, _ in _formality_runs()] == list(FORMALITY)


@pytest.mark.parametrize("key,argv", list(_formality_runs()),
                         ids=[key for key, _ in _formality_runs()])
def test_formality_output_is_golden(key, argv, monkeypatch):
    assert _digest(argv, monkeypatch) == FORMALITY[key]


@pytest.mark.parametrize("argv", list(OTHER), ids=[a[0] for a in OTHER])
def test_cli_output_is_golden(argv, monkeypatch):
    assert _digest(argv, monkeypatch) == OTHER[argv]
