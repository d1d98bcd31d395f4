import numpy as np
import pytest

from spiketrim.errors import ShapeError
from spiketrim.neuron import LifParams, LifState, lif_sequence, lif_step


class TestParams:
    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5])
    def test_tau_open_interval(self, tau):
        with pytest.raises(ValueError):
            LifParams(tau=tau)

    def test_positive_threshold(self):
        with pytest.raises(ValueError):
            LifParams(v_th=0.0)


class TestStep:
    def test_derived_spike_train(self):
        # tau=0.5, v_th=1, constant 0.6: membranes 0.6, 0.9, 1.05 -> spike, 0.6
        params = LifParams(tau=0.5, v_th=1.0)
        state = LifState.zeros(params, (1,))
        train = [int(lif_step(state, np.array([0.6]))[0]) for _ in range(4)]
        assert train == [0, 0, 1, 0]

    def test_leak_two_steps(self):
        params = LifParams(tau=0.5, v_th=1.0)
        state = LifState(params=params, membrane=np.array([0.8]))
        for _ in range(2):
            assert not lif_step(state, np.zeros(1)).any()
        assert state.membrane[0] == pytest.approx(0.2, rel=1e-12)

    def test_boundary_fires(self):
        # spike at exact threshold equality, then hard reset to zero
        params = LifParams(tau=0.5, v_th=1.0)
        state = LifState.zeros(params, (4,))
        spikes = lif_step(state, np.full(4, 1.0))
        assert spikes.dtype == np.uint8
        assert spikes.tolist() == [1, 1, 1, 1]
        assert (state.membrane == 0.0).all()

    def test_membrane_below_threshold_after_step(self):
        params = LifParams(tau=0.9, v_th=1.0)
        state = LifState.zeros(params, (256,))
        rng = np.random.default_rng(0)
        for _ in range(20):
            lif_step(state, rng.normal(size=256))
            assert (state.membrane < params.v_th).all()

    def test_equals_out_of_place_formula(self):
        # the in-place update against the formula it replaced, bit for bit:
        # negative currents (negative and -0.0 membranes), currents that land
        # exactly on the threshold, and the reset of a spiking neuron
        params = LifParams(tau=0.75, v_th=1.0)
        rng = np.random.default_rng(3)
        currents = rng.normal(scale=1.5, size=(12, 64))
        currents[:, :8] = -0.0
        currents[0, 8:16] = 1.0  # exactly v_th from a zero membrane
        currents[1, 8:16] = -0.5
        currents[2, 8:16] = 1.0 - 0.75 * -0.5  # back to exactly v_th
        init = np.zeros(64)
        init[:8] = -0.0  # -0.0 membranes fed -0.0 currents stay -0.0
        state = LifState(params=params, membrane=init.copy())
        membrane = init.copy()
        for cur in currents:
            m = params.tau * membrane + cur
            expected = m >= params.v_th
            membrane = m * (1.0 - expected)
            spikes = lif_step(state, cur)
            assert spikes.dtype == np.uint8
            assert spikes.tobytes() == expected.astype(np.uint8).tobytes()
            assert state.membrane.tobytes() == membrane.tobytes()
        assert np.signbit(state.membrane[:8]).all()
        assert (state.membrane[8:] < 0).any()

    def test_updates_membrane_in_place(self):
        state = LifState.zeros(LifParams(tau=0.5, v_th=1.0), (3,))
        membrane = state.membrane
        lif_step(state, np.array([0.4, 1.0, -2.0]))
        assert state.membrane is membrane
        assert membrane.tolist() == [0.4, 0.0, -2.0]

    def test_shape_mismatch(self):
        state = LifState.zeros(LifParams(), (3,))
        with pytest.raises(ShapeError):
            lif_step(state, np.zeros(4))

    def test_monotone_drive(self):
        # raising one current component never turns that spike 1 -> 0
        rng = np.random.default_rng(1)
        params = LifParams(tau=0.7, v_th=1.0)
        for _ in range(200):
            membrane = rng.uniform(0, 0.99, size=5)
            current = rng.normal(size=5)
            s1 = LifState(params=params, membrane=membrane.copy())
            s2 = LifState(params=params, membrane=membrane.copy())
            bumped = current.copy()
            j = rng.integers(5)
            bumped[j] += rng.uniform(0, 2)
            a = lif_step(s1, current)
            b = lif_step(s2, bumped)
            assert b[j] >= a[j]

    def test_state_isolation(self):
        params = LifParams(tau=0.8, v_th=1.0)
        rng = np.random.default_rng(2)
        currents = rng.normal(size=(10, 6))
        s1 = LifState.zeros(params, (6,))
        s2 = LifState.zeros(params, (6,))
        for t in range(10):
            a = lif_step(s1, currents[t])
            b = lif_step(s2, currents[t])
            assert (a == b).all()


class TestSequence:
    def test_single_step_equals_step(self):
        params = LifParams(tau=0.5, v_th=1.0)
        cur = np.array([[0.4, 1.2]])
        seq = lif_sequence(params, cur)
        state = LifState.zeros(params, (2,))
        step = lif_step(state, cur[0])
        assert (seq.data[0] == step).all()

    def test_zero_currents(self):
        assert not lif_sequence(LifParams(), np.zeros((5, 3))).data.any()

    def test_derived_train_over_time_axis(self):
        params = LifParams(tau=0.5, v_th=1.0)
        seq = lif_sequence(params, np.full((4, 1), 0.6))
        assert seq.data[:, 0].tolist() == [0, 0, 1, 0]

    def test_empty_time_axis(self):
        with pytest.raises(ValueError):
            lif_sequence(LifParams(), np.zeros((0, 3)))
