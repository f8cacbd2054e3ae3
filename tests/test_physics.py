"""Physics tests: the simulated engine's measured behaviour matches the
paper's analytical models (amplifications, policy trade-offs, Monkey)."""


from repro.config import BloomScheme, SystemConfig
from repro.core.missions import MissionRunner
from repro.core.ruskey import RusKey
from repro.core.tuners import StaticTuner
from repro.lsm.tree import LSMTree
from repro.workload.uniform import UniformWorkload


def run_static(policy, gamma, n_missions=40, mission_size=600, seed=3,
               scheme=BloomScheme.UNIFORM, bits=8.0):
    config = SystemConfig(
        write_buffer_bytes=32 * 1024,
        initial_policy=policy,
        bloom_scheme=scheme,
        bits_per_key=bits,
        seed=seed,
    )
    store = RusKey(config, tuner=StaticTuner(policy), chunk_size=64)
    workload = UniformWorkload(8000, lookup_fraction=gamma, seed=seed)
    keys, values = workload.load_records()
    store.bulk_load(keys, values, distribute=True)
    store.run_missions(workload.missions(n_missions, mission_size))
    return store


class TestAmplificationPhysics:
    def test_write_amplification_decreases_with_policy(self):
        """Paper: write amplification of a level is T/K."""
        amps = []
        for policy in (1, 5, 10):
            store = run_static(policy, gamma=0.0)
            io = store.io_counters
            amps.append(
                io.total_writes * store.config.entries_per_page
                / store.view().total_updates
            )
        assert amps[0] > amps[1] > amps[2]
        # Leveling rewrites entries many times; tiering only a handful.
        assert amps[0] / amps[2] > 2.0

    def test_read_cost_increases_with_policy(self):
        """More runs per level => more probes and false-positive reads."""
        times = []
        for policy in (1, 10):
            store = run_static(policy, gamma=1.0, n_missions=20)
            view = store.view()
            times.append(view.total_read_time / view.total_lookups)
        assert times[1] > times[0]

    def test_zero_result_lookups_cost_less_with_stricter_blooms(self):
        """Lower FPR => fewer wasted page reads on absent keys."""
        reads = []
        for bits in (2.0, 12.0):
            config = SystemConfig(
                write_buffer_bytes=32 * 1024, bits_per_key=bits, seed=3
            )
            store = RusKey(config, tuner=StaticTuner(1), chunk_size=64)
            workload = UniformWorkload(
                8000, lookup_fraction=1.0, zero_result_fraction=1.0, seed=3
            )
            keys, values = workload.load_records()
            store.bulk_load(keys, values, distribute=True)
            store.run_missions(workload.missions(10, 600))
            reads.append(
                store.io_counters.random_reads / store.view().total_lookups
            )
        assert reads[1] < reads[0]

    def test_policy_crossover_matches_paper_shape(self):
        """K=1 wins read-heavy, K=10 wins write-heavy (Figure 6's core)."""
        read_heavy = {
            policy: run_static(policy, gamma=0.9).mean_latency(last_n=15)
            for policy in (1, 10)
        }
        write_heavy = {
            policy: run_static(policy, gamma=0.1).mean_latency(last_n=15)
            for policy in (1, 10)
        }
        assert read_heavy[1] < read_heavy[10]
        assert write_heavy[10] < write_heavy[1]


class TestMonkeyPhysics:
    def test_monkey_beats_uniform_on_zero_result_reads(self):
        """Monkey's FPR allocation reduces wasted reads for the same memory
        budget (its design goal)."""
        reads = {}
        for scheme in (BloomScheme.UNIFORM, BloomScheme.MONKEY):
            config = SystemConfig(
                write_buffer_bytes=32 * 1024,
                bloom_scheme=scheme,
                bits_per_key=4.0,
                seed=3,
            )
            store = RusKey(config, tuner=StaticTuner(5), chunk_size=64)
            workload = UniformWorkload(
                8000, lookup_fraction=1.0, zero_result_fraction=1.0, seed=3
            )
            keys, values = workload.load_records()
            store.bulk_load(keys, values, distribute=True)
            store.run_missions(workload.missions(12, 600))
            reads[scheme] = (
                store.io_counters.random_reads / store.view().total_lookups
            )
        assert reads[BloomScheme.MONKEY] < reads[BloomScheme.UNIFORM]

    def test_monkey_fprs_assigned_per_level(self):
        config = SystemConfig(
            write_buffer_bytes=32 * 1024,
            bloom_scheme=BloomScheme.MONKEY,
            bits_per_key=4.0,
            seed=3,
        )
        tree = LSMTree(config)
        for i in range(3000):
            tree.put(i, i)
        fprs = [level.fpr for level in tree.levels]
        assert fprs == sorted(fprs)
        assert fprs[0] < fprs[-1]


class TestCacheAndChunkingPhysics:
    def test_hot_keys_benefit_from_cache(self):
        config = SystemConfig(
            write_buffer_bytes=32 * 1024, block_cache_pages=2048, seed=3
        )
        store = RusKey(config, tuner=StaticTuner(1), chunk_size=1)
        workload = UniformWorkload(8000, lookup_fraction=0.5, seed=3)
        keys, values = workload.load_records()
        store.bulk_load(keys, values, distribute=True)
        for _ in range(40):
            for key in range(20):  # hot set far smaller than the cache
                store.get(key)
        assert store.cache_hits > store.cache_misses

    def test_chunk_sizes_agree_on_write_path(self, tiny_config):
        """Chunked execution reorders reads only; the write path (flushes,
        compactions) is byte-identical across chunk sizes."""
        totals = []
        for chunk_size in (1, 16, 256):
            tree = LSMTree(tiny_config)
            runner = MissionRunner(tree, chunk_size=chunk_size)
            workload = UniformWorkload(2000, lookup_fraction=0.5, seed=5)
            for mission in workload.missions(3, 500):
                runner.run(mission)
            totals.append(
                (tree.disk.counters.seq_writes, tree.disk.counters.seq_reads)
            )
        assert totals[0] == totals[1] == totals[2]
