"""Provenance of the engine speed report: the git sha it records."""

from __future__ import annotations

import shutil
import subprocess

import pytest

from benchmarks import bench_engine_speed as bench

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="needs the git executable"
)


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args],
        cwd=str(repo),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A one-commit git repo that the report is written into."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    monkeypatch.setattr(bench, "REPORT_PATH", tmp_path / "BENCH_engine.json")
    return tmp_path


def test_clean_tree_records_bare_sha(repo):
    assert bench._git_sha() == _git(repo, "rev-parse", "HEAD")


def test_modified_tracked_file_marks_sha_dirty(repo):
    (repo / "tracked.txt").write_text("two\n")
    assert bench._git_sha() == _git(repo, "rev-parse", "HEAD") + "-dirty"


def test_untracked_files_do_not_mark_sha_dirty(repo):
    (repo / "scratch.txt").write_text("untracked\n")
    assert bench._git_sha() == _git(repo, "rev-parse", "HEAD")


def test_outside_a_repo_is_unknown(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPORT_PATH", tmp_path / "BENCH_engine.json")
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench._git_sha() == "unknown"
