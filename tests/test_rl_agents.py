"""Tests for replay buffer, noise processes, DDPG and DQN agents."""

import pickle

import numpy as np
import pytest
import reference_nn as chain

from repro.errors import RLError
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    DQNAgent,
    DQNConfig,
    OrnsteinUhlenbeckNoise,
    ReplayBuffer,
)
from repro.rl.optim import BETA1, BETA2, EPS


class TestReplayBuffer:
    def _buffer(self, capacity=8, rng=None):
        rng = rng or np.random.default_rng(0)
        return ReplayBuffer(capacity, state_dim=2, action_dim=1, rng=rng)

    def test_push_and_len(self):
        buffer = self._buffer()
        buffer.push(np.zeros(2), np.zeros(1), 1.0, np.zeros(2))
        assert len(buffer) == 1
        assert not buffer.is_full

    def test_wraps_at_capacity(self):
        buffer = self._buffer(capacity=4)
        for i in range(10):
            buffer.push(np.full(2, i), np.zeros(1), float(i), np.zeros(2))
        assert len(buffer) == 4
        assert buffer.is_full
        states, _, rewards, _, _ = buffer.sample(32)
        assert rewards.min() >= 6.0  # only the newest four survive

    def test_sample_shapes(self):
        buffer = self._buffer()
        for i in range(5):
            buffer.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), done=True)
        states, actions, rewards, next_states, dones = buffer.sample(3)
        assert states.shape == (3, 2)
        assert actions.shape == (3, 1)
        assert rewards.shape == (3,)
        assert dones.tolist() == [1.0, 1.0, 1.0]

    def test_sample_empty_raises(self):
        with pytest.raises(RLError):
            self._buffer().sample(1)

    def test_invalid_construction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RLError):
            ReplayBuffer(0, 2, 1, rng)
        with pytest.raises(RLError):
            ReplayBuffer(4, 0, 1, rng)

    def test_clear(self):
        buffer = self._buffer()
        buffer.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(2))
        buffer.clear()
        assert len(buffer) == 0


class TestNoise:
    def test_ou_mean_reversion(self):
        rng = np.random.default_rng(0)
        noise = OrnsteinUhlenbeckNoise(1, rng, mu=0.0, theta=0.5, sigma=0.05)
        samples = np.asarray([noise.sample()[0] for _ in range(2000)])
        assert abs(samples.mean()) < 0.1

    def test_ou_reset(self):
        rng = np.random.default_rng(0)
        noise = OrnsteinUhlenbeckNoise(2, rng, mu=0.5)
        noise.sample()
        noise.reset()
        assert (noise._state == 0.5).all()

    def test_scale_sigma_floor(self):
        rng = np.random.default_rng(0)
        noise = OrnsteinUhlenbeckNoise(1, rng, sigma=0.1)
        noise.scale_sigma(0.0)
        assert noise.sigma == 0.0
        assert noise.sample().shape == (1,)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RLError):
            OrnsteinUhlenbeckNoise(0, rng)


class TestDDPG:
    def _agent(self, **overrides):
        rng = np.random.default_rng(3)
        params = dict(
            state_dim=2, action_dim=1, hidden=(16, 16), gamma=0.0,
            noise_sigma=0.5, warmup=4,
        )
        params.update(overrides)
        return DDPGAgent(DDPGConfig(**params), rng)

    def test_action_in_range(self):
        agent = self._agent()
        action = agent.act(np.zeros(2))
        assert action.shape == (1,)
        assert -1.0 <= action[0] <= 1.0

    def test_update_before_warmup_returns_none(self):
        agent = self._agent()
        assert agent.update() is None

    def test_solves_continuous_bandit(self):
        """Reward -(a - 0.5)^2 should pull actions toward 0.5."""
        agent = self._agent()
        state = np.asarray([0.3, -0.2])
        for _ in range(400):
            action = agent.act(state, explore=True)
            reward = -((action[0] - 0.5) ** 2)
            agent.observe(state, action, reward, state, done=True)
            agent.update()
            agent.decay_noise()
        final = agent.act(state, explore=False)
        assert final[0] == pytest.approx(0.5, abs=0.2)

    def test_noise_decay_and_reset(self):
        agent = self._agent(noise_decay=0.5)
        initial = agent.noise.sigma
        agent.decay_noise()
        assert agent.noise.sigma == pytest.approx(initial * 0.5)
        agent.reset_exploration()
        assert agent.noise.sigma == pytest.approx(initial)

    def test_target_networks_track(self):
        agent = self._agent(tau=0.5)
        for _ in range(20):
            state = np.random.default_rng(0).normal(size=2)
            action = agent.act(state)
            agent.observe(state, action, 1.0, state, done=True)
        before = [p.copy() for p in agent.target_critic.params()]
        agent.update()
        after = agent.target_critic.params()
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_config_validation(self):
        with pytest.raises(RLError):
            DDPGConfig(gamma=1.0).validate()
        with pytest.raises(RLError):
            DDPGConfig(tau=0.0).validate()
        with pytest.raises(RLError):
            DDPGConfig(buffer_capacity=4, batch_size=8).validate()

    # ROADMAP 18's probes: each was accepted, and the first learned step
    # (or none at all: a NaN rate just turns the weights NaN) failed later.
    @pytest.mark.parametrize(
        "bad",
        [
            {"actor_lr": -1.0},
            {"actor_lr": float("inf")},
            {"critic_lr": float("nan")},
            {"critic_lr": 0.0},
            {"noise_decay": 2.0},
            {"noise_decay": 0.0},
            {"noise_sigma": -1.0},
            {"hidden": ()},
            {"hidden": (32, 0)},
        ],
        ids=str,
    )
    def test_config_refuses(self, bad):
        with pytest.raises(RLError):
            DDPGConfig(**bad).validate()
        with pytest.raises(RLError):
            DDPGAgent(DDPGConfig(**bad), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "edge", [{"noise_decay": 1.0}, {"noise_sigma": 0.0}, {"hidden": (1,)}], ids=str
    )
    def test_config_accepts_the_boundary(self, edge):
        agent = self._agent(**edge)
        for _ in range(6):
            agent.observe(np.zeros(2), agent.act(np.zeros(2)), 1.0, np.zeros(2))
        assert np.isfinite(agent.update(2))


class TestDQN:
    def _agent(self, **overrides):
        rng = np.random.default_rng(3)
        params = dict(
            state_dim=2, n_actions=3, hidden=(16, 16), gamma=0.0,
            warmup=4, epsilon_decay=0.9,
        )
        params.update(overrides)
        return DQNAgent(DQNConfig(**params), rng)

    def test_action_is_valid_index(self):
        agent = self._agent()
        action = agent.act(np.zeros(2))
        assert action in (0, 1, 2)

    def test_greedy_when_not_exploring(self):
        agent = self._agent()
        actions = {agent.act(np.zeros(2), explore=False) for _ in range(10)}
        assert len(actions) == 1

    def test_solves_discrete_bandit(self):
        """Action 2 always pays 1.0, others 0 — the agent should find it."""
        agent = self._agent()
        state = np.asarray([0.1, 0.9])
        for _ in range(300):
            action = agent.act(state, explore=True)
            reward = 1.0 if action == 2 else 0.0
            agent.observe(state, action, reward, state, done=True)
            agent.update()
            agent.decay_epsilon()
        assert agent.act(state, explore=False) == 2

    def test_epsilon_decay_floor(self):
        agent = self._agent(epsilon_min=0.1)
        for _ in range(100):
            agent.decay_epsilon()
        assert agent.epsilon == pytest.approx(0.1)

    def test_reset_exploration(self):
        agent = self._agent()
        for _ in range(10):
            agent.decay_epsilon()
        agent.reset_exploration()
        assert agent.epsilon == pytest.approx(1.0)

    def test_target_sync(self):
        agent = self._agent(target_sync_every=1)
        state = np.zeros(2)
        for _ in range(10):
            agent.observe(state, 0, 0.5, state, done=True)
        agent.update()
        for mine, theirs in zip(agent.target_net.params(), agent.q_net.params()):
            assert np.allclose(mine, theirs)

    def test_config_validation(self):
        with pytest.raises(RLError):
            DQNConfig(n_actions=1).validate()
        with pytest.raises(RLError):
            DQNConfig(epsilon_min=0.5, epsilon_start=0.1).validate()

    # ROADMAP 18(a): a NaN rate turned the weights NaN, a decay above 1
    # grew ε, and warmup 0 sampled an empty buffer on the first update.
    @pytest.mark.parametrize(
        "bad", [{"lr": float("nan")}, {"epsilon_decay": 1.5}, {"warmup": 0}], ids=str
    )
    def test_config_refuses(self, bad):
        with pytest.raises(RLError):
            DQNConfig(**bad).validate()
        with pytest.raises(RLError):
            DQNAgent(DQNConfig(**bad), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "edge", [{"lr": 5e-324}, {"epsilon_decay": 1.0}, {"warmup": 1}], ids=str
    )
    def test_config_accepts_the_boundary(self, edge):
        agent = self._agent(**edge)
        for _ in range(agent.config.warmup):
            agent.observe(np.zeros(2), agent.act(np.zeros(2)), 1.0, np.zeros(2))
        assert np.isfinite(agent.update())


# ----------------------------------------------------------------------
# Flat buffers ≡ per-array loops, bit for bit
# ----------------------------------------------------------------------
# The reference: the update steps as per-array loops — a Python loop over
# each weight/bias array for Adam, Polyak averaging and zero-grad — with
# every forward and backward the per-layer chain of tests/reference_nn.py,
# and the actor's gradient taken by a full critic backward whose parameter
# grads are then thrown away. It runs against the same flat-buffer objects
# (through their per-array views), so equality says the fused passes do
# the same float ops.


def _zero_grad_per_array(net):
    for grad in net.grads():
        grad.fill(0.0)


def _adam_step_per_array(opt):
    net = opt._net
    opt._t += 1
    bias1 = 1.0 - BETA1**opt._t
    bias2 = 1.0 - BETA2**opt._t
    for param, grad, m, v in zip(
        net.params(), net.grads(), net.split(opt._m), net.split(opt._v)
    ):
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        param -= opt.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)


def _polyak_per_array(target, source, tau):
    for mine, theirs in zip(target.params(), source.params()):
        mine *= 1.0 - tau
        mine += tau * theirs


def _reference_ddpg_update(agent):
    cfg = agent.config
    states, actions, rewards, next_states, dones = agent.replay.sample(
        cfg.batch_size
    )
    next_actions, _ = chain.forward(agent.target_actor, next_states)
    target_q, _ = chain.forward(
        agent.target_critic, np.concatenate([next_states, next_actions], axis=1)
    )
    y = rewards + cfg.gamma * (1.0 - dones) * target_q[:, 0]

    _zero_grad_per_array(agent.critic)
    q, tape = chain.forward(agent.critic, np.concatenate([states, actions], axis=1))
    chain.backward(agent.critic, tape, (2.0 / cfg.batch_size) * (q[:, 0] - y)[:, None])
    _adam_step_per_array(agent.critic_opt)

    _zero_grad_per_array(agent.actor)
    policy_actions, actor_tape = chain.forward(agent.actor, states)
    _zero_grad_per_array(agent.critic)
    _, tape = chain.forward(agent.critic, np.concatenate([states, policy_actions], axis=1))
    grad_in = chain.backward(agent.critic, tape, np.full((cfg.batch_size, 1), 1.0))
    chain.backward(agent.actor, actor_tape, -grad_in[:, cfg.state_dim :] / cfg.batch_size)
    _zero_grad_per_array(agent.critic)
    _adam_step_per_array(agent.actor_opt)

    _polyak_per_array(agent.target_actor, agent.actor, cfg.tau)
    _polyak_per_array(agent.target_critic, agent.critic, cfg.tau)
    agent.updates_done += 1


def _reference_dqn_update(agent):
    cfg = agent.config
    states, actions, rewards, next_states, dones = agent.replay.sample(
        cfg.batch_size
    )
    action_idx = actions[:, 0].astype(int)
    rows = np.arange(cfg.batch_size)
    next_q, _ = chain.forward(agent.target_net, next_states)
    y = rewards + cfg.gamma * (1.0 - dones) * next_q.max(axis=1)

    _zero_grad_per_array(agent.q_net)
    q_all, tape = chain.forward(agent.q_net, states)
    grad = np.zeros_like(q_all)
    grad[rows, action_idx] = (2.0 / cfg.batch_size) * (q_all[rows, action_idx] - y)
    chain.backward(agent.q_net, tape, grad)
    _adam_step_per_array(agent.opt)

    agent.updates_done += 1
    if agent.updates_done % cfg.target_sync_every == 0:
        for mine, theirs in zip(agent.target_net.params(), agent.q_net.params()):
            mine[...] = theirs


def _warm_agent(agent_cls, config_cls, hidden, seed=5):
    """An agent past warm-up: 40 transitions pushed from a seeded feed."""
    agent = agent_cls(
        config_cls(state_dim=6, hidden=hidden), np.random.default_rng(seed)
    )
    feed = np.random.default_rng(seed + 1)
    for _ in range(40):
        state = feed.normal(size=6)
        agent.observe(
            state, agent.act(state), float(feed.normal()), feed.normal(size=6)
        )
    return agent


def _ddpg(hidden, seed=5):
    return _warm_agent(DDPGAgent, DDPGConfig, hidden, seed)


def _dqn(hidden, seed=5):
    return _warm_agent(DQNAgent, DQNConfig, hidden, seed)


def _nets_and_opts(agent):
    """``({attribute: network}, {attribute: optimizer})`` of an agent."""
    if isinstance(agent, DDPGAgent):
        net_keys, opt_keys = (
            ("actor", "critic", "target_actor", "target_critic"),
            ("actor_opt", "critic_opt"),
        )
    else:
        net_keys, opt_keys = ("q_net", "target_net"), ("opt",)
    return (
        {key: getattr(agent, key) for key in net_keys},
        {key: getattr(agent, key) for key in opt_keys},
    )


def _assert_bit_equal(agent, other):
    nets, opts = _nets_and_opts(agent)
    other_nets, other_opts = _nets_and_opts(other)
    for key, net in nets.items():
        for mine, theirs in zip(net.params(), other_nets[key].params()):
            assert np.array_equal(mine, theirs)
    for key, opt in opts.items():
        other_opt = other_opts[key]
        assert opt._t == other_opt._t
        assert np.array_equal(opt._m, other_opt._m)
        assert np.array_equal(opt._v, other_opt._v)
    assert agent._rng.bit_generator.state == other._rng.bit_generator.state


FLAT_CASES = [
    pytest.param(_ddpg, _reference_ddpg_update, id="ddpg"),
    pytest.param(_dqn, _reference_dqn_update, id="dqn"),
]


@pytest.mark.parametrize("hidden", [(32, 32), (128, 128, 128)], ids=str)
@pytest.mark.parametrize("build, reference_update", FLAT_CASES)
class TestFlatBuffersMatchPerArrayLoops:
    def test_fifty_updates_bit_equal(self, build, reference_update, hidden):
        agent, reference = build(hidden), build(hidden)
        for _ in range(50):
            agent.update()
            reference_update(reference)
        assert agent.updates_done == reference.updates_done == 50
        _assert_bit_equal(agent, reference)

    def test_per_array_snapshot_resumes_bit_equal(
        self, build, reference_update, hidden
    ):
        """A pickled agent comes back with every layer array a view of its
        network's flat vectors again (pickle copies a view apart from its
        base), each optimizer stepping its own network, and a continuation
        bit-equal to the original's."""
        agent = build(hidden)
        for _ in range(10):
            agent.update()
        fresh = pickle.loads(pickle.dumps(agent))
        fresh_nets, fresh_opts = _nets_and_opts(fresh)
        for net in fresh_nets.values():
            for array in net.params():
                assert np.shares_memory(array, net.flat_params)
            for array in net.grads():
                assert np.shares_memory(array, net.flat_grads)
        for opt in fresh_opts.values():
            assert any(opt._net is net for net in fresh_nets.values())
        for buffer, online, target in fresh.PAIRS:  # each pair one buffer again
            rows = (getattr(fresh, online).flat_params, getattr(fresh, target).flat_params)
            assert rows[0].base is rows[1].base is getattr(fresh, buffer)
        for _ in range(20):
            agent.update()
            reference_update(fresh)
        _assert_bit_equal(agent, fresh)
        # The optimiser moved the arrays the layers read from.
        trained = next(iter(fresh_opts.values()))._net
        before = [p.copy() for p in trained.params()]
        fresh.update()
        assert all(
            not np.array_equal(old, new)
            for old, new in zip(before, trained.params())
        )


# ----------------------------------------------------------------------
# update(n): one fused pass ≡ n single steps, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hidden", [(32, 32), (128, 128, 128)], ids=str)
class TestFusedUpdate:
    def test_update_n_equals_n_single_steps(self, hidden):
        fused, single = _ddpg(hidden), _ddpg(hidden)
        for n in (8, 1, 3, 8):
            fused.update(n)
            for _ in range(n):
                single.update()
        assert fused.updates_done == single.updates_done == 20
        _assert_bit_equal(fused, single)

    def test_pickle_mid_stream_resumes_bit_equal(self, hidden):
        """A snapshot between passes comes back with each online/target
        pair in one buffer again (the nets' rows), and continues bit-equal."""
        fused, single = _ddpg(hidden), _ddpg(hidden)
        fused.update(5)
        fused = pickle.loads(pickle.dumps(fused))
        assert np.shares_memory(fused.actor.flat_params, fused.target_actor.flat_params) is False
        assert fused.actor.flat_params.base is fused.target_actor.flat_params.base
        assert fused.critic.flat_params.base is fused.target_critic.flat_params.base
        fused.update(8)
        for _ in range(13):
            single.update()
        _assert_bit_equal(fused, single)

    def test_returns_the_last_steps_loss(self, hidden):
        fused, single = _ddpg(hidden), _ddpg(hidden)
        losses = [single.update() for _ in range(4)]
        assert fused.update(4) == losses[-1]


def test_update_refuses_no_steps():
    agent = _ddpg((32, 32))
    for n in (0, -1):
        with pytest.raises(RLError):
            agent.update(n)
    assert agent.updates_done == 0
