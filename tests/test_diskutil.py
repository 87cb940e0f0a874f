"""Tests for the shared sharded directory (repro.exec.diskutil).

The per-store suites cover LRU order, tie-breaks and orphan sweeps
through each store's own API; these cover what only the primitive
itself promises.
"""

import os

import pytest

from repro.exec.diskutil import ShardedDir


def _dir(tmp_path):
    return ShardedDir(str(tmp_path), ".bin", "test dir", "writes dropped")


def test_matching_none_one_and_ambiguous(tmp_path):
    store = _dir(tmp_path)
    for key in ("aa11", "aa12", "bb00"):
        store.write(key, key.encode())
    assert store.resolve("cc") is None
    assert store.resolve("bb") == "bb00"
    assert store.resolve("aa11") == "aa11"
    with pytest.raises(KeyError) as raised:
        store.resolve("aa1")
    assert raised.value.args[0] == ["aa11", "aa12"]


def test_resolve_takes_a_stored_key_without_walking(tmp_path, monkeypatch):
    store = _dir(tmp_path)
    store.write("aa11", b"x")
    monkeypatch.setattr(store, "entries", lambda: [])
    assert store.resolve("aa11") == "aa11"
    assert store.resolve("aa1") is None
    # A path that escapes the directory is never taken for a key.
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "out.bin").write_bytes(b"x")
    nested = ShardedDir(str(tmp_path / "a" / "b"), ".bin", "d", "dropped")
    assert os.path.exists(nested.file_for("../out"))
    assert nested.resolve("../out") is None


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
