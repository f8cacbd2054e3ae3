"""Tests for replay buffer, noise processes, DDPG and DQN agents."""

import numpy as np
import pytest

from repro.errors import RLError
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    DQNAgent,
    DQNConfig,
    OrnsteinUhlenbeckNoise,
    ReplayBuffer,
)


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
