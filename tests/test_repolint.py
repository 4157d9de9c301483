"""Tests for tools/repolint -- the AST-based invariant checker.

Fixture snippets exercise each rule's positive/negative cases, the
suppression machinery, the baseline round-trip, and -- the one that
matters most -- the referee-tamper scenario: copy real referee modules
into a tmpdir, mutate a referee body, and assert RF01 fires (same for
a generator body without a GENERATOR_VERSION bump, for RF02).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repolint import Config, Context, default_config, run  # noqa: E402
from tools.repolint.engine import save_baseline  # noqa: E402
from tools.repolint.fingerprint import locate, node_fingerprint  # noqa: E402
from tools.repolint.rules.rf_fingerprints import (  # noqa: E402
    update_fingerprints,
)

import ast  # noqa: E402


def make_repo(tmp_path: Path, files: "dict[str, str]", **cfg) -> Config:
    """Materialize a mini repo and a Config scoped to it."""
    for rel, content in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(content), encoding="utf-8")
    defaults = dict(
        root=tmp_path,
        scan_roots=("src",),
        referees={},
        hot_path_modules=(),
        generators={},
        generator_version_file="src/gen.py",
        doc_link_files=(),
    )
    defaults.update(cfg)
    return Config(**defaults)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# fingerprint normalization


class TestFingerprint:
    SRC = '''
        def referee(x):
            """Doc."""
            total = 0
            for i in range(x):
                total += i
            return total
    '''

    def _hash(self, src: str) -> str:
        node = locate(ast.parse(textwrap.dedent(src)), "referee")
        assert node is not None
        return node_fingerprint(node)

    def test_docstring_change_does_not_drift(self):
        other = self.SRC.replace('"""Doc."""', '"""Completely new doc."""')
        assert self._hash(self.SRC) == self._hash(other)

    def test_formatting_change_does_not_drift(self):
        other = self.SRC.replace("total = 0", "total  =  0")
        assert self._hash(self.SRC) == self._hash(other)

    def test_body_change_drifts(self):
        other = self.SRC.replace("total += i", "total += i + 1")
        assert self._hash(self.SRC) != self._hash(other)

    def test_dotted_locate(self):
        tree = ast.parse("class A:\n    def m(self):\n        return 1\n")
        assert locate(tree, "A.m") is not None
        assert locate(tree, "A.missing") is None


# ---------------------------------------------------------------------------
# RF01 referee-fingerprint


class TestRF01:
    FILES = {
        "src/mod.py": '''
            def fast(xs):
                return sum(xs)


            def fast_loop(xs):
                """Referee."""
                total = 0
                for x in xs:
                    total = total + x
                return total
        '''
    }

    def _config(self, tmp_path, files=None):
        return make_repo(
            tmp_path, files or self.FILES,
            referees={"src/mod.py": ("fast_loop",)},
        )

    def test_clean_after_pinning(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        assert rule_ids(run(config, select=["RF01"])) == []

    def test_missing_fingerprints_file(self, tmp_path):
        config = self._config(tmp_path)
        report = run(config, select=["RF01"])
        assert rule_ids(report) == ["RF01"]
        assert "fingerprints file missing" in report.findings[0].message

    def test_tamper_fires(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        mod = tmp_path / "src/mod.py"
        mod.write_text(
            mod.read_text().replace("total = total + x", "total += x")
        )
        report = run(config, select=["RF01"])
        assert rule_ids(report) == ["RF01"]
        assert "drifted" in report.findings[0].message

    def test_unpinned_referee_fires(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        config.referees = {"src/mod.py": ("fast_loop", "fast")}
        report = run(config, select=["RF01"])
        assert any("not pinned" in f.message for f in report.findings)

    def test_suppression_inside_referee_forbidden(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        mod = tmp_path / "src/mod.py"
        text = mod.read_text()
        assert "    for x in xs:" in text
        mod.write_text(
            text.replace(
                "    for x in xs:",
                "    # repolint: allow(VL01): sneaky\n    for x in xs:",
            )
        )
        # The comment does not change the AST, so the fingerprint still
        # matches -- the suppression itself must be the finding.
        report = run(config, select=["RF01"])
        assert any("forbidden" in f.message for f in report.findings)

    def test_real_referee_tamper_in_tmpdir(self, tmp_path):
        """Copy the real referees + pins, mutate one, RF01 fires."""
        real = default_config()
        for rel in list(real.referees) + [real.fingerprints_path]:
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(real.root / rel, dst)
        config = Config(
            root=tmp_path, scan_roots=("src",),
            hot_path_modules=(), generators={}, doc_link_files=(),
        )
        assert rule_ids(run(config, select=["RF01"])) == []

        target = tmp_path / "src/repro/packing/custom_loop.py"
        text = target.read_text()
        lines = text.splitlines(keepends=True)
        sig_end = next(
            i for i, l in enumerate(lines)
            if l.startswith("def cheaper_to_distribute_loop")
            or lines[i - 1].startswith("def cheaper_to_distribute_loop")
        )
        while not lines[sig_end].rstrip().endswith(":"):
            sig_end += 1
        lines.insert(sig_end + 1, "    _tampered = True\n")
        target.write_text("".join(lines))

        report = run(config, select=["RF01"])
        assert any(
            "cheaper_to_distribute_loop" in f.message
            and "drifted" in f.message
            for f in report.findings
        )


# ---------------------------------------------------------------------------
# RF02 generator-version


class TestRF02:
    FILES = {
        "src/gen.py": '''
            GENERATOR_VERSION = 3


            def draw(seed):
                return seed * 3
        '''
    }

    def _config(self, tmp_path):
        return make_repo(
            tmp_path, self.FILES,
            generators={"src/gen.py": ("draw",)},
            generator_version_file="src/gen.py",
        )

    def test_clean_after_pinning(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        assert rule_ids(run(config, select=["RF02"])) == []

    def test_body_change_without_bump_fires(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        gen = tmp_path / "src/gen.py"
        gen.write_text(gen.read_text().replace("seed * 3", "seed * 5"))
        report = run(config, select=["RF02"])
        assert rule_ids(report) == ["RF02"]
        assert "without a GENERATOR_VERSION bump" in report.findings[0].message

    def test_bump_requires_repin_then_green(self, tmp_path):
        config = self._config(tmp_path)
        update_fingerprints(Context(config))
        gen = tmp_path / "src/gen.py"
        gen.write_text(
            gen.read_text()
            .replace("seed * 3", "seed * 5")
            .replace("GENERATOR_VERSION = 3", "GENERATOR_VERSION = 4")
        )
        report = run(config, select=["RF02"])
        assert rule_ids(report) == ["RF02"]
        assert "re-key" in report.findings[0].message
        update_fingerprints(Context(config))
        assert rule_ids(run(config, select=["RF02"])) == []

    def test_real_generator_tamper_in_tmpdir(self, tmp_path):
        real = default_config()
        rels = list(real.generators) + [
            real.generator_version_file, real.fingerprints_path,
        ]
        for rel in dict.fromkeys(rels):
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(real.root / rel, dst)
        config = Config(
            root=tmp_path, scan_roots=("src",), referees={},
            hot_path_modules=(), doc_link_files=(),
        )
        assert rule_ids(run(config, select=["RF02"])) == []

        target = tmp_path / real.generator_version_file
        text = target.read_text()
        assert "rng = np.random.default_rng(seed)" in text
        target.write_text(
            text.replace(
                "rng = np.random.default_rng(seed)",
                "rng = np.random.default_rng(seed)\n    _tampered = True",
                1,
            )
        )
        report = run(config, select=["RF02"])
        assert any(
            "without a GENERATOR_VERSION bump" in f.message
            for f in report.findings
        )


# ---------------------------------------------------------------------------
# VL01 vectorization-lint


class TestVL01:
    def _config(self, tmp_path, body, referees=None):
        files = {"src/hot.py": body}
        return make_repo(
            tmp_path, files,
            hot_path_modules=("src/hot.py",),
            referees=referees or {},
        )

    def test_loop_flagged(self, tmp_path):
        config = self._config(tmp_path, """
            def f(xs):
                out = []
                for x in xs:
                    out.append(x)
                while out:
                    out.pop()
                return out
        """)
        report = run(config, select=["VL01"])
        assert rule_ids(report) == ["VL01", "VL01"]

    def test_referee_allowlisted_by_construction(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            def f_loop(xs):
                for x in xs:
                    pass
            """,
            referees={"src/hot.py": ("f_loop",)},
        )
        assert rule_ids(run(config, select=["VL01"])) == []

    def test_literal_tuple_iteration_exempt(self, tmp_path):
        config = self._config(tmp_path, """
            def f(a, b, c):
                for arr in (a, b, c):
                    arr.sort()
        """)
        assert rule_ids(run(config, select=["VL01"])) == []

    def test_suppressed_with_reason(self, tmp_path):
        config = self._config(tmp_path, """
            def f(xs):
                # repolint: allow(VL01): scalar kernel by design
                for x in xs:
                    pass
        """)
        report = run(config, select=["VL01"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1].reason == "scalar kernel by design"

    def test_non_hot_path_module_ignored(self, tmp_path):
        config = make_repo(tmp_path, {"src/cold.py": """
            def f(xs):
                for x in xs:
                    pass
        """})
        assert rule_ids(run(config, select=["VL01"])) == []


# ---------------------------------------------------------------------------
# RN01 rng-discipline


class TestRN01:
    def _run(self, tmp_path, rel, body, seams=()):
        config = make_repo(
            tmp_path, {rel: body}, rng_seam_prefixes=tuple(seams),
        )
        return run(config, select=["RN01"])

    def test_legacy_global_state_flagged(self, tmp_path):
        report = self._run(tmp_path, "src/a.py", """
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(3)
        """)
        assert rule_ids(report) == ["RN01", "RN01"]
        assert "np.random.seed" in report.findings[0].message

    def test_legacy_from_import_flagged(self, tmp_path):
        report = self._run(tmp_path, "src/a.py", """
            from numpy.random import shuffle
        """)
        assert rule_ids(report) == ["RN01"]

    def test_default_rng_outside_seam_flagged(self, tmp_path):
        report = self._run(tmp_path, "src/a.py", """
            import numpy as np

            def f():
                rng = np.random.default_rng(0)
                return rng.integers(10)
        """)
        assert rule_ids(report) == ["RN01"]
        assert "seeding seams" in report.findings[0].message

    def test_default_rng_at_seam_ok(self, tmp_path):
        report = self._run(
            tmp_path, "src/workloads/a.py", """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(10)
            """,
            seams=("src/workloads/",),
        )
        assert rule_ids(report) == []

    def test_generator_annotation_is_not_construction(self, tmp_path):
        report = self._run(tmp_path, "src/a.py", """
            import numpy as np

            def f(rng: np.random.Generator) -> np.ndarray:
                return rng.integers(10, size=3)
        """)
        assert rule_ids(report) == []

    def test_real_tree_is_clean(self):
        assert rule_ids(run(default_config(), select=["RN01"])) == []


# ---------------------------------------------------------------------------
# EK01 env-knob registry


class TestEK01:
    def _config(self, tmp_path, code, doc):
        return make_repo(
            tmp_path,
            {"src/a.py": code, "docs/KNOBS.md": doc},
            env_knob_doc="docs/KNOBS.md",
        )

    def test_in_sync(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            import os
            A = os.environ.get("MCSS_ALPHA", "1")
            B = os.getenv("MCSS_BETA")
            C = os.environ["MCSS_GAMMA"]
            """,
            "Knobs: `MCSS_ALPHA`, `MCSS_BETA`, `MCSS_GAMMA`.\n",
        )
        assert rule_ids(run(config, select=["EK01"])) == []

    def test_undocumented_read_fires(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            import os
            A = os.environ.get("MCSS_SECRET", "1")
            """,
            "No knobs documented here.\n",
        )
        report = run(config, select=["EK01"])
        assert rule_ids(report) == ["EK01"]
        assert "MCSS_SECRET" in report.findings[0].message
        assert report.findings[0].path == "src/a.py"

    def test_stale_doc_entry_fires(self, tmp_path):
        config = self._config(
            tmp_path, "import os\n", "Ghost knob: `MCSS_GONE`.\n",
        )
        report = run(config, select=["EK01"])
        assert rule_ids(report) == ["EK01"]
        assert "never read" in report.findings[0].message
        assert report.findings[0].path == "docs/KNOBS.md"


# ---------------------------------------------------------------------------
# DL01 doc-links


class TestDL01:
    def test_broken_and_ok_links(self, tmp_path):
        config = make_repo(
            tmp_path,
            {
                "README.md": (
                    "[ok](docs/GOOD.md) [ext](https://x.invalid/page)\n"
                    "[anchor](#section) [bad](docs/MISSING.md)\n"
                ),
                "docs/GOOD.md": "hello [home](../README.md)\n",
            },
            doc_link_files=("README.md", "docs"),
        )
        report = run(config, select=["DL01"])
        assert rule_ids(report) == ["DL01"]
        finding = report.findings[0]
        assert finding.path == "README.md"
        assert finding.line == 2
        assert "docs/MISSING.md" in finding.message


# ---------------------------------------------------------------------------
# UQ01 sorted-distinct primitive


class TestUQ01:
    def _run(self, tmp_path, body, rel="src/mod.py", **cfg):
        return run(make_repo(tmp_path, {rel: body}, **cfg), select=["UQ01"])

    def test_hash_path_calls_flagged(self, tmp_path):
        report = self._run(tmp_path, """
            import numpy
            import numpy as np
            from numpy import setdiff1d as diff

            def f(a, b):
                keys = np.unique(a)
                both = numpy.union1d(a, b)
                return keys, both, np.intersect1d(a, b), np.setxor1d(a, b), diff(a, b)
        """)
        assert rule_ids(report) == ["UQ01"] * 5
        assert [f.line for f in report.findings] == [7, 8, 9, 9, 9]
        assert "sorted_unique" in report.findings[0].message

    def test_return_keyword_calls_exempt(self, tmp_path):
        report = self._run(tmp_path, """
            import numpy as np

            def f(a):
                values, counts = np.unique(a, return_counts=True)
                first = np.unique(a, return_index=True)[1]
                return values, counts, first, np.unique(a, return_inverse=True)
        """)
        assert rule_ids(report) == []

    def test_referee_body_exempt(self, tmp_path):
        report = self._run(
            tmp_path,
            """
            import numpy as np

            def f_loop(a, b):
                return np.setdiff1d(np.unique(a), b)

            def f(a):
                return np.unique(a)
            """,
            referees={"src/mod.py": ("f_loop",)},
        )
        assert [(f.rule, f.line) for f in report.findings] == [("UQ01", 8)]

    def test_generator_body_exempt(self, tmp_path):
        report = self._run(
            tmp_path,
            """
            import numpy as np

            def draw(rng, n):
                return np.unique(rng.integers(0, 9, size=n))
            """,
            generators={"src/mod.py": ("draw",)},
        )
        assert rule_ids(report) == []

    def test_inline_suppression(self, tmp_path):
        report = self._run(tmp_path, """
            import numpy as np

            def f(a):
                return np.unique(a)  # repolint: allow(UQ01): float labels, not ids
        """)
        assert report.findings == []
        assert [s.reason for _, s in report.suppressed] == ["float labels, not ids"]

    def test_outside_src_ignored(self, tmp_path):
        report = self._run(
            tmp_path,
            "import numpy as np\nkeys = np.unique([3, 1])\n",
            rel="scripts/tool.py",
            scan_roots=("src", "scripts"),
        )
        assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# suppression machinery + baseline round-trip


class TestSuppressionsAndBaseline:
    HOT = {
        "src/hot.py": """
            def f(xs):
                for x in xs:
                    pass
        """
    }

    def test_malformed_comment_fires(self, tmp_path):
        config = make_repo(tmp_path, {"src/a.py": """
            x = 1  # repolint: allow me everything
        """})
        report = run(config, select=["RN01"])
        assert rule_ids(report) == ["SUP01"]

    def test_reason_is_mandatory(self, tmp_path):
        config = make_repo(
            tmp_path,
            {"src/hot.py": """
                def f(xs):
                    # repolint: allow(VL01)
                    for x in xs:
                        pass
            """},
            hot_path_modules=("src/hot.py",),
        )
        report = run(config, select=["VL01"])
        assert sorted(rule_ids(report)) == ["SUP01", "VL01"]

    def test_unknown_rule_fires(self, tmp_path):
        config = make_repo(tmp_path, {"src/a.py": """
            x = 1  # repolint: allow(XX99): whatever
        """})
        report = run(config, select=["RN01"])
        assert rule_ids(report) == ["SUP01"]
        assert "unknown rule" in report.findings[0].message

    def test_unused_suppression_fires(self, tmp_path):
        config = make_repo(
            tmp_path,
            {"src/hot.py": """
                def f(xs):
                    # repolint: allow(VL01): nothing loops here
                    return list(xs)
            """},
            hot_path_modules=("src/hot.py",),
        )
        report = run(config, select=["VL01"])
        assert rule_ids(report) == ["SUP01"]
        assert "unused" in report.findings[0].message

    def test_unused_check_scoped_to_selected_rules(self, tmp_path):
        # A VL01 suppression is not "unused" when only RN01 runs.
        config = make_repo(
            tmp_path,
            {"src/hot.py": """
                def f(xs):
                    # repolint: allow(VL01): nothing loops here
                    return list(xs)
            """},
            hot_path_modules=("src/hot.py",),
        )
        assert rule_ids(run(config, select=["RN01"])) == []

    def test_baseline_round_trip(self, tmp_path):
        config = make_repo(
            tmp_path, dict(self.HOT), hot_path_modules=("src/hot.py",),
        )
        report = run(config, select=["VL01"])
        assert rule_ids(report) == ["VL01"]

        save_baseline(config, report.findings)
        again = run(config, select=["VL01"])
        assert again.findings == []
        assert len(again.baselined) == 1
        assert again.exit_code == 0

        data = json.loads((tmp_path / config.baseline_path).read_text())
        assert data["findings"][0]["rule"] == "VL01"
        assert "justification" in data["findings"][0]

    def test_unknown_select_raises(self, tmp_path):
        config = make_repo(tmp_path, {})
        with pytest.raises(ValueError, match="unknown rule"):
            run(config, select=["NOPE"])

    def test_parse_error_reported(self, tmp_path):
        config = make_repo(tmp_path, {"src/a.py": "def broken(:\n"})
        report = run(config, select=["RN01"])
        assert rule_ids(report) == ["PARSE"]


# ---------------------------------------------------------------------------
# the repository itself


class TestRealRepo:
    def test_full_pass_is_green(self):
        report = run(default_config())
        assert report.findings == [], [
            f"{f.path}:{f.line}: {f.rule}: {f.message}"
            for f in report.findings
        ]
        assert report.exit_code == 0

    def test_no_suppressions_in_referee_modules(self):
        # Acceptance: zero suppressions inside referee bodies; RF01
        # enforces it, and the pure-referee module stays comment-clean.
        config = default_config()
        text = (config.root / "src/repro/packing/custom_loop.py").read_text()
        assert "repolint: allow" not in text

    def test_cli_end_to_end(self, tmp_path):
        json_path = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repolint",
             "--json", str(json_path)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(json_path.read_text())
        assert payload["counts"]["findings"] == 0
        assert payload["selected_rules"] == [
            "RF01", "RF02", "VL01", "RN01", "EK01", "DL01", "UQ01",
        ]

    def test_cli_select_dl01(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repolint", "--select", "DL01"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "rules: DL01" in proc.stdout
