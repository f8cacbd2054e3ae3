"""Tests for repro.lsm.iterators."""

import numpy as np

from repro.lsm.iterators import live_items
from repro.lsm.tree import LSMTree


class TestLiveItems:
    def test_empty_tree(self, tiny_config):
        keys, values = live_items(LSMTree(tiny_config))
        assert len(keys) == 0
        assert len(values) == 0

    def test_reflects_all_layers(self, tiny_config):
        tree = LSMTree(tiny_config)
        model = {}
        for i in range(500):
            key = int(i * 17 % 800)
            tree.put(key, i)
            model[key] = i
        keys, values = live_items(tree)
        assert dict(zip(keys.tolist(), values.tolist())) == model

    def test_memtable_overrides_disk(self, tiny_config):
        tree = LSMTree(tiny_config)
        tree.put(1, 10)
        for i in range(100, 200):
            tree.put(i, i)  # flush the old version of key 1 to disk
        tree.put(1, 99)  # newer version still in the memtable
        keys, values = live_items(tree)
        assert dict(zip(keys.tolist(), values.tolist()))[1] == 99

    def test_excludes_tombstones(self, tiny_config):
        tree = LSMTree(tiny_config)
        tree.put(1, 10)
        tree.put(2, 20)
        tree.delete(1)
        keys, _ = live_items(tree)
        assert keys.tolist() == [2]

    def test_charges_no_simulated_time(self, tiny_config):
        tree = LSMTree(tiny_config)
        for i in range(300):
            tree.put(i, i)
        before = tree.clock.now
        live_items(tree)
        assert tree.clock.now == before

    def test_sorted_by_key(self, tiny_config, rng):
        tree = LSMTree(tiny_config)
        for key in rng.choice(10_000, size=300, replace=False):
            tree.put(int(key), int(key) * 2)
        keys, values = live_items(tree)
        assert len(keys) == 300
        assert (np.diff(keys) > 0).all()
        assert (values == keys * 2).all()
