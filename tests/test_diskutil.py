"""Tests for the shared sharded directory (repro.exec.diskutil).

The per-store suites cover LRU order, tie-breaks and orphan sweeps
through each store's own API; these cover what only the primitive
itself promises.
"""

import os

from repro.exec.diskutil import ShardedDir


def _dir(tmp_path):
    return ShardedDir(str(tmp_path), ".bin", "test dir", "writes dropped")


def test_matching_none_one_and_ambiguous(tmp_path):
    store = _dir(tmp_path)
    for key in ("aa11", "aa12", "bb00"):
        store.write(key, key.encode())
    assert store.matching("cc") == []
    assert store.matching("bb") == ["bb00"]
    assert store.matching("aa1") == ["aa11", "aa12"]
    assert store.matching("aa11") == ["aa11"]


def test_read_leaves_mtime_unchanged(tmp_path):
    store = _dir(tmp_path)
    store.write("abcd", b"payload")
    target = store.file_for("abcd")
    os.utime(target, (1000, 1000))
    assert store.read("abcd") == b"payload"
    assert os.stat(target).st_mtime == 1000
    store.touch("abcd")
    assert os.stat(target).st_mtime > 1000


def test_failed_replace_leaves_no_temp_file_and_no_entry(
        tmp_path, monkeypatch, capsys):
    store = _dir(tmp_path)

    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    store.write("abcd", b"payload")
    store.write("abce", b"payload")
    assert os.listdir(os.path.join(str(tmp_path), "ab")) == []
    assert store.read("abcd") is None
    assert store.entries() == []
    err = capsys.readouterr().err
    assert err.count("is not writable") == 1
    assert "[test dir " in err and "writes dropped]" in err
