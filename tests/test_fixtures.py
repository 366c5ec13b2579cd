import numpy as np
import pytest

from benchsel import fixtures
from benchsel.data import (
    RawScoreTable,
    canonical_key,
    load_scores_with_values,
    normalize,
)
from benchsel.formats import sha256_file
from benchsel.linreg import predict_linear


@pytest.fixture(scope="module")
def norms():
    return fixtures.load_normalization()


class TestNormalizationFixture:
    def test_has_57_environments(self, norms):
        assert len(norms.entries) == 57

    def test_known_reference_values(self, norms):
        bz = norms.lookup("Battle Zone")
        assert (bz.random, bz.human) == (2360.0, 37187.5)
        ntg = norms.lookup("Name This Game")
        assert (ntg.random, ntg.human) == (2292.35, 8049.0)
        skiing = norms.lookup("Skiing")
        assert (skiing.random, skiing.human) == (-17098.09, -4336.9)

    def test_anchor_property_every_environment(self, norms):
        env_ids = norms.environment_ids
        randoms = np.array([norms.lookup(e).random for e in env_ids])
        humans = np.array([norms.lookup(e).human for e in env_ids])
        table = RawScoreTable(("random", "human"), env_ids,
                              np.vstack([randoms, humans]))
        z = normalize(table, norms)
        assert np.all(z[0] == 0.0)
        assert np.all(z[1] == 100.0)

    def test_loose_name_lookup(self, norms):
        assert norms.lookup("Q*Bert").name == "Qbert"
        assert norms.lookup("ms. pac-man").name == "Ms Pacman"


class TestSubsetModelFixtures:
    def test_all_models_load_and_reference_the_norm_table(self):
        expected = sha256_file(fixtures.normalization_path())
        for name in fixtures.SUBSET_MODEL_NAMES:
            model, doc = fixtures.load_subset_model(name)
            assert doc["norms_checksum"] == expected
            assert model.intercept is None
            assert len(model.coefficients) == len(model.environment_ids)

    def test_atari5_games(self):
        model, _ = fixtures.load_subset_model("atari5")
        assert model.environment_ids == ("Battle Zone", "Double Dunk",
                                         "Name This Game", "Phoenix", "Qbert")
        assert list(model.coefficients) == [0.3820, 0.0679, 0.3108,
                                            0.1241, 0.0805]

    def test_atari3_unit_input_sum(self):
        model, _ = fixtures.load_subset_model("atari3")
        assert predict_linear(model, [1.0, 1.0, 1.0]) == pytest.approx(
            0.9854, abs=1e-12)

    def test_nesting_across_reference_models(self):
        subsets = {}
        for name in ("atari1", "atari3", "atari5", "atari10"):
            model, _ = fixtures.load_subset_model(name)
            subsets[name] = {canonical_key(e) for e in model.environment_ids}
        assert subsets["atari1"] <= subsets["atari3"] <= subsets["atari5"] \
            <= subsets["atari10"]
        val3, _ = fixtures.load_subset_model("atari3val")
        val5, _ = fixtures.load_subset_model("atari5val")
        v3 = {canonical_key(e) for e in val3.environment_ids}
        v5 = {canonical_key(e) for e in val5.environment_ids}
        assert v3 <= v5
        assert not (v5 & subsets["atari5"])

    def test_stats_carry_expected_error_levels(self):
        model, _ = fixtures.load_subset_model("atari5")
        assert model.stats.r_squared == pytest.approx(0.984)
        # ln(10) * log_mae recovers the documented ~10.4% relative error
        assert 2.302585092994046 * model.stats.log_mae == pytest.approx(
            0.104, abs=1e-9)


class TestBankFixtures:
    @pytest.mark.parametrize("name,size", [("atari5_bank", 5),
                                           ("atari10_bank", 10)])
    def test_full_coverage(self, name, size, norms):
        bank, doc = fixtures.load_reference_bank(name)
        assert len(bank.subset) == size
        assert len(bank.models) == 57
        assert bank.covers(norms.environment_ids)

    def test_identity_rows_reproduce_input_exactly(self):
        bank, _ = fixtures.load_reference_bank("atari5_bank")
        for i, env in enumerate(bank.subset):
            model = bank.models[env]
            assert model.intercept == 0.0
            x = np.zeros(5)
            x[i] = 1.7345
            assert predict_linear(model, x) == 1.7345

    def test_known_alien_row(self):
        bank, _ = fixtures.load_reference_bank("atari5_bank")
        alien = bank.models["Alien"]
        assert alien.intercept == -0.807
        assert list(alien.coefficients) == [0.717, -0.106, 0.362, 0.195, 0.100]

    def test_atari10_identity_block(self):
        bank, _ = fixtures.load_reference_bank("atari10_bank")
        for i, env in enumerate(bank.subset):
            coef = bank.models[env].coefficients
            assert coef[i] == 1.0
            assert np.count_nonzero(coef) == 1


class TestSidecarFixtures:
    def test_categories_cover_all_games(self, norms):
        from benchsel.analysis import load_categories

        cats = load_categories(fixtures.categories_path())
        keys = {canonical_key(k) for k in cats}
        assert {canonical_key(e) for e in norms.environment_ids} <= keys

    def test_reference_subsets(self):
        subsets = fixtures.load_reference_subsets()
        assert set(subsets["dqn7"]["environments"]) == {
            "Beam Rider", "Breakout", "Enduro", "Pong", "Qbert",
            "Seaquest", "Space Invaders"}
        assert len(subsets["a3c5"]["environments"]) == 5

    def test_demo_scores_load(self, norms):
        table, values = load_scores_with_values(fixtures.demo_scores_path(),
                                                ("median57",))
        assert table.n_algorithms == 24
        assert table.n_environments == 15
        assert all(env in norms.index for env in table.environment_ids)
        assert all(v is not None for v in values["median57"].values())
        assert table.provenance is not None
