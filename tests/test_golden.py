"""The golden-output corpus: every case of ``tests/golden/update.py`` run
in process gives the exit code, output hashes, stderr and warnings that
``tests/golden/manifest.json`` records."""

import codecs
import json
import locale

import pytest

from golden.update import MANIFEST, run_corpus, versions


def test_every_invocation_matches_the_manifest(tmp_path):
    if codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
        pytest.skip("crypto-audit reads its file in the locale encoding, which is not UTF-8 here")
    manifest = json.loads(MANIFEST.read_text())
    got = run_corpus(tmp_path)
    assert [(case["name"], case["argv"], case["exit"]) for case in got] == \
        [(case["name"], case["argv"], case["exit"]) for case in manifest["cases"]]
    here = versions()
    if here["numpy"] != manifest["numpy"]:
        pytest.skip(f"output hashes not compared: the manifest was written with numpy "
                    f"{manifest['numpy']}, this is numpy {here['numpy']}")
    for case, expected in zip(got, manifest["cases"]):
        assert case == expected
