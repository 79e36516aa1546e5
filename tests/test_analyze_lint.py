"""Tests for the repo-invariant AST lint (repro.analyze.lint).

Each rule gets a positive fixture (violation caught with the right id)
and a negative one (the sanctioned idiom passes).  On top of the rules:
allow-comment suppression, the baseline split (old findings suppressed,
new ones gate), and a smoke test of the ``repro.cli analyze`` entry.
"""

import json

import pytest

from repro.analyze import Baseline, fingerprints, lint_paths, registered_rules


def _lint_source(tmp_path, source, name="victim.py", rules=None):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([path], rules=rules)


def _rule_ids(findings):
    return {f.rule_id for f in findings}


class TestRngRules:
    def test_rl001_flags_global_np_random(self, tmp_path):
        findings = _lint_source(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        assert "RL001" in _rule_ids(findings)

    def test_rl001_allows_generator_construction(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.normal(size=3)\n",
        )
        assert "RL001" not in _rule_ids(findings)

    def test_rl002_flags_unseeded_default_rng(self, tmp_path):
        findings = _lint_source(tmp_path, "import numpy as np\nrng = np.random.default_rng()\n")
        assert "RL002" in _rule_ids(findings)
        seeded = _lint_source(tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n",
                              name="seeded.py")
        assert "RL002" not in _rule_ids(seeded)


class TestWriteRule:
    def test_rl003_flags_raw_writes(self, tmp_path):
        source = (
            "from pathlib import Path\n"
            "import numpy as np\n"
            "open('out.txt', 'w').write('x')\n"
            "Path('out.txt').write_text('x')\n"
            "np.savez('out.npz', a=1)\n"
        )
        findings = _lint_source(tmp_path, source)
        assert sum(f.rule_id == "RL003" for f in findings) == 3

    def test_rl003_ignores_reads_and_whitelisted_module(self, tmp_path):
        read = _lint_source(tmp_path, "data = open('in.txt').read()\n")
        assert "RL003" not in _rule_ids(read)
        wl = _lint_source(tmp_path, "open('out.txt', 'w').write('x')\n", name="ioutil.py")
        assert "RL003" not in _rule_ids(wl)


class TestClockRule:
    def test_rl004_only_fires_in_clock_seam_modules(self, tmp_path):
        # Whitelists match package-relative paths, so scan the tree root.
        source = "import time\nnow = time.monotonic()\n"
        (tmp_path / "serve").mkdir()
        (tmp_path / "serve" / "worker.py").write_text(source)
        (tmp_path / "training.py").write_text(source)
        findings = lint_paths([tmp_path], rules=["RL004"])
        assert [f.location.split("/")[-1] for f in findings] == ["worker.py:2"]


class TestWallClockLatencyRule:
    def test_rl009_flags_time_time_outside_clock_seams(self, tmp_path):
        source = (
            "import time\n"
            "start = time.time()\n"
            "elapsed = time.time() - start\n"
        )
        findings = _lint_source(tmp_path, source, name="training.py",
                                rules=["RL009"])
        assert [f.location.split(":")[-1] for f in findings] == ["2", "3"]

    def test_rl009_allows_monotonic_and_annotated_timestamps(self, tmp_path):
        source = (
            "import time\n"
            "start = time.monotonic()\n"
            "dur = time.perf_counter() - start\n"
            "ts = time.time()  # analyze: allow[RL009] wall timestamp\n"
        )
        findings = _lint_source(tmp_path, source, rules=["RL009"])
        assert findings == []

    def test_rl009_defers_to_rl004_inside_clock_seam_modules(self, tmp_path):
        # serve/ and resilience/ are RL004 territory; RL009 must not
        # double-flag the same call there.
        (tmp_path / "serve").mkdir()
        (tmp_path / "serve" / "worker.py").write_text(
            "import time\nnow = time.time()\n")
        assert lint_paths([tmp_path], rules=["RL009"]) == []
        both = lint_paths([tmp_path], rules=["RL004", "RL009"])
        assert [f.rule_id for f in both] == ["RL004"]


class TestExceptionRules:
    def test_rl005_bare_except(self, tmp_path):
        findings = _lint_source(tmp_path, "try:\n    pass\nexcept:\n    raise\n")
        assert "RL005" in _rule_ids(findings)

    def test_rl006_silent_handler(self, tmp_path):
        findings = _lint_source(tmp_path, "try:\n    pass\nexcept OSError:\n    pass\n")
        assert "RL006" in _rule_ids(findings)
        logged = _lint_source(
            tmp_path,
            "try:\n    pass\nexcept OSError as exc:\n    print(exc)\n",
            name="logged.py",
        )
        assert "RL006" not in _rule_ids(logged)


class TestTensorStateRule:
    def test_rl007_flags_data_mutation_outside_framework(self, tmp_path):
        source = "def poke(t):\n    t.data[...] = 0.0\n    t.grad = None\n"
        findings = _lint_source(tmp_path, source)
        assert sum(f.rule_id == "RL007" for f in findings) == 2

    def test_rl007_whitelists_framework_modules(self, tmp_path):
        (tmp_path / "nn").mkdir()
        (tmp_path / "nn" / "optim.py").write_text("def step(p):\n    p.data[...] -= 0.1\n")
        assert lint_paths([tmp_path], rules=["RL007"]) == []


class TestLockRule:
    def test_rl008_flags_mixed_locked_unlocked_writes(self, tmp_path):
        source = (
            "import threading\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def locked_bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def racy_bump(self):\n"
            "        self.count += 1\n"
        )
        findings = _lint_source(tmp_path, source)
        rl008 = [f for f in findings if f.rule_id == "RL008"]
        assert rl008 and "Server.count" in rl008[0].message

    def test_rl008_clean_when_every_write_is_locked(self, tmp_path):
        source = (
            "import threading\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL008" not in _rule_ids(findings)


class TestSuppression:
    def test_allow_comment_on_line_and_line_above(self, tmp_path):
        source = (
            "try:\n"
            "    pass\n"
            "except OSError:  # analyze: allow[RL006] best-effort\n"
            "    pass\n"
            "try:\n"
            "    pass\n"
            "# analyze: allow[RL006]\n"
            "except ValueError:\n"
            "    pass\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL006" not in _rule_ids(findings)

    def test_allow_star_suppresses_everything(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "import numpy as np\n"
            "x = np.random.rand(3)  # analyze: allow[*]\n",
        )
        assert findings == []

    def test_allow_does_not_leak_past_the_next_line(self, tmp_path):
        # An allow covers its own line and the one below (comment-above
        # idiom) — nothing further.
        source = (
            "import numpy as np\n"
            "a = np.random.rand(3)  # analyze: allow[RL001]\n"
            "\n"
            "b = np.random.rand(3)\n"
        )
        findings = _lint_source(tmp_path, source)
        assert sum(f.rule_id == "RL001" for f in findings) == 1


class TestBaseline:
    def test_baseline_suppresses_old_but_not_new(self, tmp_path):
        old = _lint_source(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        baseline = Baseline.from_findings(old)

        grown = (
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
            "y = np.random.seed(0)\n"
        )
        findings = _lint_source(tmp_path, grown)
        new, suppressed = baseline.split(findings)
        assert [f.message for f in suppressed] == ["global numpy RNG call np.random.rand()"]
        assert [f.message for f in new] == ["global numpy RNG call np.random.seed()"]

    def test_fingerprints_are_line_number_stable(self, tmp_path):
        first = _lint_source(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        shifted = _lint_source(
            tmp_path, "import numpy as np\n\n\n\nx = np.random.rand(3)\n"
        )
        assert fingerprints(first) == fingerprints(shifted)

    def test_baseline_round_trips_through_disk(self, tmp_path):
        findings = _lint_source(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        new, suppressed = loaded.split(findings)
        assert new == [] and len(suppressed) == 1

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestRetrySeamRule:
    def test_rl010_flags_while_try_sleep_loop(self, tmp_path):
        source = (
            "import time\n"
            "def fetch(reader):\n"
            "    while True:\n"
            "        try:\n"
            "            return reader()\n"
            "        except OSError:\n"
            "            time.sleep(1.0)\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL010" in _rule_ids(findings)

    def test_rl010_flags_counted_for_range_sleep_loop(self, tmp_path):
        source = (
            "import time\n"
            "def fetch(reader):\n"
            "    for attempt in range(3):\n"
            "        result = reader()\n"
            "        if result:\n"
            "            return result\n"
            "        time.sleep(2 ** attempt)\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL010" in _rule_ids(findings)

    def test_rl010_allows_plain_poll_loop(self, tmp_path):
        # Polling until a condition holds is not a retry loop: no
        # exception handling, no bounded attempt counter.
        source = (
            "import time\n"
            "def wait_for(ready):\n"
            "    while not ready():\n"
            "        time.sleep(0.1)\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL010" not in _rule_ids(findings)

    def test_rl010_allows_the_seam_itself(self, tmp_path):
        source = (
            "import time\n"
            "def retry_call(fn):\n"
            "    while True:\n"
            "        try:\n"
            "            return fn()\n"
            "        except OSError:\n"
            "            time.sleep(1.0)\n"
        )
        nested = tmp_path / "resilience"
        nested.mkdir()
        (nested / "backoff.py").write_text(source)
        findings = lint_paths([tmp_path], root=tmp_path)
        assert "RL010" not in _rule_ids(findings)

    def test_rl010_allow_comment_suppresses(self, tmp_path):
        source = (
            "import time\n"
            "def fetch(reader):\n"
            "    for attempt in range(3):\n"
            "        try:\n"
            "            return reader()\n"
            "        except OSError:\n"
            "            time.sleep(1.0)  # analyze: allow[RL010] bootstrap, no seam yet\n"
        )
        findings = _lint_source(tmp_path, source)
        assert "RL010" not in _rule_ids(findings)


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        """The gate the CI job enforces: zero un-baselined lint findings."""
        findings = lint_paths(["src/repro"], root=".")
        assert findings == [], [str(f.to_dict()) for f in findings]

    def test_rule_registry_is_documented(self):
        rules = registered_rules()
        assert set(rules) >= {f"RL0{i:02d}" for i in range(1, 11)}
        for r in rules.values():
            assert r.description and r.fix_hint


class TestDiscovery:
    def test_pycache_and_hidden_files_are_skipped(self, tmp_path):
        bad = "import numpy as np\nx = np.random.rand(3)\n"
        (tmp_path / "real.py").write_text(bad)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "real.cpython-311.py").write_text(bad)
        hidden_dir = tmp_path / ".venv" / "lib"
        hidden_dir.mkdir(parents=True)
        (hidden_dir / "vendored.py").write_text(bad)
        (tmp_path / ".hidden.py").write_text(bad)
        findings = lint_paths([tmp_path], rules=["RL001"])
        assert [f.location.split(":")[0] for f in findings] == [
            str(tmp_path / "real.py")
        ]

    def test_explicit_file_path_always_scans(self, tmp_path):
        # pointing at a file directly bypasses directory filtering
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        victim = cache / "odd.py"
        victim.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_paths([victim], rules=["RL001"])


class TestCli:
    def test_analyze_cli_gates_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        victim = tmp_path / "bad.py"
        victim.write_text("import numpy as np\nx = np.random.rand(3)\n")
        json_out = tmp_path / "report.json"
        code = main([
            "analyze", "--no-models", "--paths", str(victim),
            "--baseline", str(tmp_path / "baseline.json"),
            "--json", str(json_out), "--quiet",
        ])
        assert code == 1  # RL001 is error severity and not baselined
        payload = json.loads(json_out.read_text())
        assert payload["summary"]["by_rule"] == {"RL001": 1}

        # Accept it into the baseline; the same run now passes.
        assert main([
            "analyze", "--no-models", "--paths", str(victim),
            "--baseline", str(tmp_path / "baseline.json"),
            "--update-baseline", "--quiet",
        ]) == 0
        assert main([
            "analyze", "--no-models", "--paths", str(victim),
            "--baseline", str(tmp_path / "baseline.json"), "--quiet",
        ]) == 0

    def test_analyze_cli_changed_only_in_clean_tree(self, tmp_path):
        """--changed-only with no changed files exits 0 without scanning."""
        import subprocess

        from repro.cli import main

        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "ok.py").write_text("x = 1\n")
        subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-qm", "seed"],
            cwd=tmp_path, check=True,
        )
        assert main([
            "analyze", "--root", str(tmp_path), "--changed-only", "--quiet",
            "--baseline", str(tmp_path / "baseline.json"),
        ]) == 0

        # a new un-committed file is picked up and gated
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert main([
            "analyze", "--root", str(tmp_path), "--changed-only", "--quiet",
            "--baseline", str(tmp_path / "baseline.json"),
        ]) == 1
