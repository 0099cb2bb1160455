"""The benchmark report file across pytest sessions.

``benchmarks/conftest.py`` writes the rendered paper tables to
``bench_report.txt`` beside the benchmarks directory. A session that
renders no table (the perf benchmarks) must leave the last report in
place; the first table of a session replaces it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"

OLD_REPORT = "an earlier session's report\n"


def _session(tmp_path, body):
    """Run one pytest session over a copy of the benchmark conftest and
    one test with ``body``; returns the report file's text afterwards."""
    bench = tmp_path / "benchmarks"
    bench.mkdir(exist_ok=True)
    shutil.copy(CONFTEST, bench / "conftest.py")
    (bench / "test_case.py").write_text(
        "from conftest import emit\n\n\ndef test_case():\n    %s\n" % body
    )
    report = tmp_path / "bench_report.txt"
    if not report.exists():
        report.write_text(OLD_REPORT)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(bench)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return report.read_text()


def test_session_without_emit_leaves_report_untouched(tmp_path):
    assert _session(tmp_path, "pass") == OLD_REPORT


def test_first_emit_of_a_session_replaces_report(tmp_path):
    text = _session(tmp_path, "emit('table one'); emit('table two')")
    assert OLD_REPORT not in text
    assert text.startswith("Reproduction report")
    assert text.index("table one") < text.index("table two")
    # The next session starts the report over.
    assert "table one" not in _session(tmp_path, "emit('table three')")
