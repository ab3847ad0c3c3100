"""Unit tests for the on-disk result cache."""

import json
import os

import repro.exec.cache as cache_module
from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.cases import CACHE_SCHEMA_VERSION, Case, case_key
from tests.executor.stub_experiment import EXPERIMENT


def make_case(x=1):
    return Case(experiment=EXPERIMENT, label=f"x={x}", params={"x": x})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        assert cache.get(case) is None
        cache.put(case, {"value": 2})
        assert cache.get(case) == {"value": 2}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_params_do_not_alias(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_case(1), {"value": 2})
        assert cache.get(make_case(2)) is None

    def test_survives_reopen(self, tmp_path):
        ResultCache(tmp_path).put(make_case(), {"value": 2})
        assert ResultCache(tmp_path).get(make_case()) == {"value": 2}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        path = cache._path(case_key(case))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(case) is None

    def test_entry_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        payload = json.loads(
            cache._path(case_key(case)).read_text(encoding="utf-8")
        )
        assert payload["experiment"] == EXPERIMENT
        assert payload["label"] == case.label
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert payload["key"] == case_key(case)
        assert payload["params"] == case.params

    def test_git_style_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        key = case_key(case)
        assert (tmp_path / key[:2] / f"{key}.json").exists()

    def test_put_creates_missing_root_and_shard(self, tmp_path):
        root = tmp_path / "a" / "b"
        ResultCache(root).put(make_case(), {"value": 2})
        assert ResultCache(root).get(make_case()) == {"value": 2}

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_dir()) == ".repro-cache"


class TestMissWithoutStat:
    """A lookup is one ``open``; whatever stops it is a miss, and none of
    these is mistaken for corruption."""

    def assert_clean_miss(self, cache, case):
        assert cache.get(case) is None
        assert (cache.hits, cache.misses, cache.corrupt, cache.stale) == (
            0, 1, 0, 0
        )
        assert not cache.quarantine_root.exists()

    def test_missing_root_is_a_miss(self, tmp_path):
        self.assert_clean_miss(ResultCache(tmp_path / "absent"), make_case())

    def test_missing_shard_directory_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        assert not (tmp_path / case.key[:2]).exists()
        self.assert_clean_miss(cache, case)

    def test_directory_at_the_entry_path_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache._path(case.key).mkdir(parents=True)
        self.assert_clean_miss(cache, case)
        assert cache._path(case.key).is_dir()  # left alone

    def test_file_vanishing_before_open_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})

        def unlink_then_open(path, *args, **kwargs):
            os.unlink(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cache_module, "open", unlink_then_open,
                            raising=False)
        self.assert_clean_miss(cache, case)


class TestQuarantine:
    """Corrupt entries are moved aside, not silently treated as misses."""

    def corrupt_entry(self, cache, case, text="{torn"):
        path = cache._path(case_key(case))
        path.write_text(text, encoding="utf-8")
        return path

    def test_corrupt_distinguished_from_absent(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        assert cache.get(case) is None  # absent
        assert (cache.misses, cache.corrupt) == (1, 0)
        cache.put(case, {"value": 2})
        self.corrupt_entry(cache, case)
        assert cache.get(case) is None  # corrupt
        assert (cache.misses, cache.corrupt) == (1, 1)
        # The damaged file is gone, so the next read is a clean miss.
        assert cache.get(case) is None
        assert (cache.misses, cache.corrupt) == (2, 1)

    def test_corrupt_entry_moved_to_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        path = self.corrupt_entry(cache, case)
        cache.get(case)
        assert not path.exists()
        quarantined = list(cache.quarantine_root.iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_text(encoding="utf-8") == "{torn"

    def test_repeated_quarantine_never_overwrites_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        for round_ in range(3):
            cache.put(case, {"value": round_})
            self.corrupt_entry(cache, case, text=f"{{torn {round_}")
            assert cache.get(case) is None
        assert len(list(cache.quarantine_root.iterdir())) == 3

    def test_key_mismatch_is_corrupt(self, tmp_path):
        """A renamed/aliased file must not masquerade as another case."""
        cache = ResultCache(tmp_path)
        a, b = make_case(1), make_case(2)
        cache.put(a, {"value": 1})
        path_b = cache._path(case_key(b))
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(cache._path(case_key(a)).read_bytes())
        assert cache.get(b) is None
        assert cache.corrupt == 1
        assert cache.get(a) == {"value": 1}  # the real entry is untouched

    def test_stale_schema_is_orphaned_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        path = cache._path(case_key(case))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = CACHE_SCHEMA_VERSION + 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(case) is None
        assert (cache.stale, cache.corrupt) == (1, 0)
        assert path.exists()  # left in place for gc

    def test_legacy_unversioned_entry_is_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        case = make_case()
        path = cache._path(case_key(case))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"experiment": EXPERIMENT, "label": case.label,
                        "result": {"value": 2}}),
            encoding="utf-8",
        )
        assert cache.get(case) is None
        assert cache.stale == 1


class TestConcurrentMutation:
    """A concurrent runner's quarantine/gc can unlink an entry between
    the directory listing and the read; that race
    must read as an ordinary miss / skip, never crash the sweep."""

    def vanish_on_load(self, monkeypatch):
        def gone(path, expected_key):
            raise FileNotFoundError(path)

        monkeypatch.setattr(ResultCache, "_load_entry", staticmethod(gone))

    def test_get_counts_a_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        case = make_case()
        cache.put(case, {"value": 2})
        self.vanish_on_load(monkeypatch)
        assert cache.get(case) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_verify_skips_vanished_entries(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(make_case(), {"value": 2})
        self.vanish_on_load(monkeypatch)
        assert cache.verify() == {
            "checked": 0, "ok": 0, "corrupt": 0, "stale": 0
        }

    def test_gc_and_stats_survive_vanished_entries(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put(make_case(), {"value": 2})
        self.vanish_on_load(monkeypatch)
        assert cache.gc()["removed_entries"] == 0
        assert cache.stats()["experiments"] == {}

    def test_stats_counts_only_entries_it_read(self, tmp_path, monkeypatch):
        """An entry that vanishes between the listing and the read is in
        none of ``entries`` / ``bytes`` / ``experiments``."""
        cache = ResultCache(tmp_path)
        kept, gone = make_case(1), make_case(2)
        cache.put(kept, {"value": 2})
        cache.put(gone, {"value": 4})
        real = ResultCache._load_entry

        def vanish_one(path, expected_key):
            if expected_key == gone.key:
                raise FileNotFoundError(path)
            return real(path, expected_key)

        monkeypatch.setattr(ResultCache, "_load_entry",
                            staticmethod(vanish_one))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == cache._path(kept.key).stat().st_size
        assert stats["experiments"] == {EXPERIMENT: 1}


class TestMaintenance:
    def populate(self, tmp_path, n=3):
        cache = ResultCache(tmp_path)
        for x in range(n):
            cache.put(make_case(x), {"value": 2 * x})
        return cache

    def test_verify_clean_store(self, tmp_path):
        cache = self.populate(tmp_path)
        assert cache.verify() == {
            "checked": 3, "ok": 3, "corrupt": 0, "stale": 0
        }

    def test_verify_quarantines_damage(self, tmp_path):
        cache = self.populate(tmp_path)
        cache._path(case_key(make_case(0))).write_text("x", encoding="utf-8")
        outcome = cache.verify()
        assert outcome["corrupt"] == 1
        assert outcome["ok"] == 2
        assert len(list(cache.quarantine_root.iterdir())) == 1
        # And a re-verify is clean.
        assert cache.verify()["corrupt"] == 0

    def test_gc_reaps_quarantine_and_stale(self, tmp_path):
        cache = self.populate(tmp_path)
        cache._path(case_key(make_case(0))).write_text("x", encoding="utf-8")
        cache.verify()
        path = cache._path(case_key(make_case(1)))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        outcome = cache.gc()
        assert outcome == {"removed_entries": 1, "removed_quarantine": 1}
        assert cache.get(make_case(2)) == {"value": 4}  # valid survives

    def test_gc_age_horizon(self, tmp_path):
        import os
        import time

        cache = self.populate(tmp_path, n=2)
        old = cache._path(case_key(make_case(0)))
        ancient = time.time() - 10 * 86400
        os.utime(old, (ancient, ancient))
        outcome = cache.gc(max_age_days=1.0)
        assert outcome["removed_entries"] == 1
        assert cache.get(make_case(1)) == {"value": 2}

    def test_stats_shape(self, tmp_path):
        cache = self.populate(tmp_path)
        cache._path(case_key(make_case(0))).write_text("x", encoding="utf-8")
        cache.get(make_case(0))  # quarantines
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["quarantined"] == 1
        assert stats["bytes"] > 0
        assert stats["experiments"] == {EXPERIMENT: 2}
