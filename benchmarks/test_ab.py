"""Tier-1 test of ``ab.py``: the run plan, the refusals, one real pair.

Nothing here asserts a time; the end-to-end case accepts either verdict
``compare.py`` can reach.
"""

import pathlib
import subprocess

import pytest

import ab

NAMES = [w.name for w in ab.declared.WORKLOADS]


def in_git_checkout() -> bool:
    top = ab.git("rev-parse", "--show-toplevel")
    head = ab.git("rev-parse", "--verify", "--quiet", "HEAD^{commit}")
    return (
        top.returncode == 0 and head.returncode == 0
        and pathlib.Path(top.stdout.strip()).resolve() == ab.REPO
    )


needs_git = pytest.mark.skipif(
    not in_git_checkout(), reason="needs the repo's own git checkout"
)


def test_every_pair_runs_both_sides_with_the_same_seed():
    runs = ab.plan(NAMES, 5)
    assert len(runs) == len(set(runs)) == 5 * len(NAMES) * 2
    for seed in range(5):
        for name in NAMES:
            assert ("base", name, seed) in runs and ("change", name, seed) in runs
    # The two sides of a pair are adjacent: nothing else runs between them.
    for first, second in zip(runs[::2], runs[1::2]):
        assert first[1:] == second[1:] and {first[0], second[0]} == set(ab.SIDES)


def test_first_side_alternates_by_pair():
    firsts = [side for side, _name, _seed in ab.plan(NAMES[:1], 4)[::2]]
    assert firsts == ["base", "change", "base", "change"]


def test_workloads_keep_declared_order():
    runs = ab.plan(list(reversed(NAMES)), 1)
    assert [name for _side, name, _seed in runs[::2]] == NAMES
    assert [name for _s, name, _i in ab.plan([NAMES[3], NAMES[1]], 1)[::2]] == [
        NAMES[1], NAMES[3],
    ]


def test_unknown_workload_exits_2_before_anything_runs(tmp_path, capsys):
    with pytest.raises(SystemExit) as refused:
        ab.main(["HEAD", "--workload", "no_such_workload"], out=tmp_path / "out")
    assert refused.value.code == 2
    assert "no_such_workload" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_names_the_rows_the_defaults_cannot_judge(tmp_path, capsys):
    with pytest.raises(SystemExit) as shown:
        ab.main(["--help"], out=tmp_path / "out")
    assert shown.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "`setup_s` (spread 7.5-30.9% against its 25% bound" in text
    assert "`participants_per_s` on svc_cbs_secured (spread 26.0%)" in text
    assert "--pairs 4 --seconds 2 cannot judge these rows" in text
    assert not (tmp_path / "out").exists()


@needs_git
def test_unresolvable_base_ref_exits_2_before_anything_runs(tmp_path, capsys):
    before = ab.git("worktree", "list").stdout
    assert ab.main(["no-such-ref-anywhere"], out=tmp_path / "out") == 2
    assert "does not name a commit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert ab.git("worktree", "list").stdout == before


@needs_git
def test_each_side_runs_equally_cold_from_an_export(tmp_path, monkeypatch):
    before = ab.git("worktree", "list").stdout
    seen: list[tuple] = []

    def fake_run_ledger(tree, env, args):
        # What the side's run.py would see, read while it would run.
        cache = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((tree, env, cache.is_dir() and not any(cache.iterdir()),
                     (tree / "benchmarks" / "ledger" / "run.py").is_file(),
                     (tree / ".git").exists()))
        return 0

    monkeypatch.setattr(ab, "run_ledger", fake_run_ledger)
    ab.main(["HEAD", "--pairs", "2", "--workload", NAMES[0]], out=tmp_path)
    assert len(seen) == 4
    trees = {tree for tree, *_ in seen}
    # Neither side runs from the checkout: both are copies in one
    # temp dir (an A/A run, checkout against export, read a bias).
    assert len(trees) == 2 and ab.REPO not in trees
    assert {tree.name for tree in trees} == set(ab.SIDES)
    assert len({tree.parent for tree in trees}) == 1
    caches = {}
    for tree, env, cache_empty, has_ledger, has_git in seen:
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        # The pinned allocator: glibc heap-trim flips moved
        # svc_nicbs_plain by 6-14% between trees without it.
        assert env["MALLOC_TOP_PAD_"] == "1048576"
        assert cache_empty and has_ledger
        assert not has_git  # a copy, not a checkout
        caches.setdefault(tree, set()).add(env["PYTHONPYCACHEPREFIX"])
    # One fresh prefix per side, shared by none.
    assert all(len(prefixes) == 1 for prefixes in caches.values())
    assert len(set.union(*caches.values())) == 2
    assert not any(tree.exists() for tree in trees)  # gone afterwards
    assert ab.git("worktree", "list").stdout == before


def test_the_change_side_copies_the_working_tree(tmp_path, monkeypatch):
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    for name in ("kept.txt", "gone.txt"):
        (repo / name).write_text("committed")
    (repo / "sub").mkdir()
    (repo / "sub" / "tracked.txt").write_text("committed")
    git("add", "-A")
    git("-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
        "commit", "-qm", "base")
    (repo / "kept.txt").write_text("edited")
    (repo / "gone.txt").unlink()
    (repo / "new.txt").write_text("untracked")
    (repo / "ignored.txt").write_text("ignored")

    monkeypatch.setattr(ab, "REPO", repo)
    ab.copy_checkout(copy)
    files = sorted(
        path.relative_to(copy).as_posix()
        for path in copy.rglob("*") if path.is_file()
    )
    assert files == [".gitignore", "kept.txt", "new.txt", "sub/tracked.txt"]
    assert (copy / "kept.txt").read_text() == "edited"


@needs_git
def test_one_pair_end_to_end_leaves_no_worktree(tmp_path, capfd):
    before = ab.git("worktree", "list").stdout
    status = ab.main(
        ["HEAD", "--pairs", "1", "--seconds", "0.5",
         "--workload", "pop_compute_serial"],
        out=tmp_path,
    )
    printed = capfd.readouterr().out
    assert status in (0, 1), printed
    for side in ab.SIDES:
        assert (tmp_path / side / "seed-0" / "pop_compute_serial.json").is_file()
    # compare.py's table: the workload header, then one judged row per metric.
    assert "pop_compute_serial   runs: A=1 B=1" in printed
    assert "participants_per_s" in printed and "failed_share" in printed
    assert ab.git("worktree", "list").stdout == before
