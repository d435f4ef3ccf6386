"""Tests for per-type sharded artifacts and the lazy reader.

Partial-load claims are asserted with manifest accounting (which shard
files were actually opened), not timings.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ArtifactError, ValidationError
from repro.serve import (SHARD_LAYOUTS, BatchPredictor, RHCHMEModel,
                         ShardedModelReader, open_model)


class TestRoundTripParity:
    def test_sharded_load_equals_monolithic_load(self, runtime_artifact,
                                                 runtime_model_path,
                                                 sharded_model_path):
        mono = RHCHMEModel.load(runtime_model_path)
        sharded = RHCHMEModel.load(sharded_model_path)
        assert mono.types == sharded.types
        assert mono.config == sharded.config
        for name in mono.membership:
            np.testing.assert_array_equal(mono.membership[name],
                                          sharded.membership[name])
            np.testing.assert_array_equal(mono.labels[name],
                                          sharded.labels[name])
        for name in mono.features:
            np.testing.assert_array_equal(mono.features[name],
                                          sharded.features[name])
        np.testing.assert_array_equal(mono.association, sharded.association)
        np.testing.assert_array_equal(mono.error_matrix, sharded.error_matrix)

    def test_shard_files_and_manifest_on_disk(self, sharded_model_path):
        directory = sharded_model_path.parent
        names = sorted(f.name for f in directory.iterdir())
        assert names == ["model.anchors.npz", "model.global.npz",
                         "model.json", "model.points.npz"]
        sidecar = json.loads((directory / "model.json").read_text())
        assert sidecar["shards"]["layout"] == "per-type"
        assert sorted(sidecar["shards"]["types"]) == ["anchors", "points"]
        # the monolithic npz handle is not written in this layout
        assert not sharded_model_path.exists()

    def test_relayout_removes_stale_files(self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        runtime_artifact.save(tmp_path / "m.npz")  # back to monolithic
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["m.json", "m.npz"]
        loaded = RHCHMEModel.load(path)
        assert loaded.type_names == runtime_artifact.type_names

    def test_unknown_layout_rejected(self, runtime_artifact, tmp_path):
        with pytest.raises(ValidationError, match="layout"):
            runtime_artifact.save(tmp_path / "m.npz", shards="per-row")

    def test_type_named_global_cannot_shard(self, tmp_path):
        # "global" is the reserved shard key; a type by that name would be
        # unreadable after a per-type save, so the save must refuse it.
        from repro.core import RHCHME
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation

        rng = np.random.default_rng(0)
        a = ObjectType("global", n_objects=12, n_clusters=2,
                       features=rng.random((12, 4)))
        b = ObjectType("other", n_objects=9, n_clusters=2,
                       features=rng.random((9, 4)))
        data = MultiTypeRelationalData(
            [a, b], [Relation("global", "other", rng.random((12, 9)))])
        model = RHCHME(max_iter=3, random_state=0, use_subspace_member=False,
                       track_metrics_every=0)
        model.fit(data)
        artifact = model.export_model(data)
        with pytest.raises(ValidationError, match="reserved"):
            artifact.save(tmp_path / "m.npz", shards="per-type")
        artifact.save(tmp_path / "m.npz")  # monolithic still fine

    def test_resave_same_layout_leaves_no_window_and_no_stale_files(
            self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["m.anchors.npz", "m.global.npz", "m.json",
                         "m.points.npz"]  # no .tmp leftovers, no duplicates
        loaded = RHCHMEModel.load(path)
        np.testing.assert_array_equal(loaded.association,
                                      runtime_artifact.association)


class TestMissingAndCorrupt:
    def test_missing_shard_refused(self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        (tmp_path / "m.anchors.npz").unlink()
        with pytest.raises(ArtifactError, match="not found"):
            RHCHMEModel.load(path)

    def test_wrong_shard_content_refused(self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        np.savez_compressed(tmp_path / "m.points.npz", junk=np.zeros(3))
        with pytest.raises(ArtifactError, match="do not match the sidecar"):
            RHCHMEModel.load(path)

    def test_corrupt_shard_refused(self, runtime_artifact, tmp_path):
        path = runtime_artifact.save(tmp_path / "m.npz", shards="per-type")
        (tmp_path / "m.global.npz").write_bytes(b"not an npz")
        with pytest.raises(ArtifactError, match="corrupt"):
            RHCHMEModel.load(path)


class TestLazyReader:
    def test_predict_reads_only_queried_type_shard(self, sharded_model_path,
                                                   query_batch):
        reader = ShardedModelReader(sharded_model_path)
        reader.predict("points", query_batch)
        reader.predict("points", query_batch[:5])
        accounting = reader.accounting()
        assert accounting["loaded_types"] == ["points"]
        assert accounting["shard_loads"] == {"points": 1}  # opened once
        assert not accounting["global_loaded"]
        assert accounting["n_shards_on_disk"] == 3

    def test_lazy_prediction_matches_eager(self, sharded_model_path,
                                           runtime_artifact, query_batch):
        reader = ShardedModelReader(sharded_model_path)
        lazy = reader.predict("points", query_batch)
        eager = runtime_artifact.predict("points", query_batch)
        np.testing.assert_array_equal(lazy.labels, eager.labels)
        np.testing.assert_allclose(lazy.membership, eager.membership,
                                   rtol=1e-12, atol=1e-15)

    def test_reader_refuses_monolithic_artifact(self, runtime_model_path):
        with pytest.raises(ArtifactError, match="monolithic"):
            ShardedModelReader(runtime_model_path)

    def test_open_model_dispatches_by_layout(self, runtime_model_path,
                                             sharded_model_path):
        assert isinstance(open_model(sharded_model_path), ShardedModelReader)
        assert isinstance(open_model(runtime_model_path), RHCHMEModel)

    def test_global_shard_loads_on_association_access(self,
                                                      sharded_model_path,
                                                      runtime_artifact):
        reader = ShardedModelReader(sharded_model_path)
        np.testing.assert_array_equal(reader.association,
                                      runtime_artifact.association)
        assert reader.accounting()["global_loaded"]

    def test_labels_and_membership_accessors(self, sharded_model_path,
                                             runtime_artifact):
        reader = ShardedModelReader(sharded_model_path)
        np.testing.assert_array_equal(reader.labels("anchors"),
                                      runtime_artifact.labels["anchors"])
        np.testing.assert_array_equal(reader.membership("anchors"),
                                      runtime_artifact.membership["anchors"])
        assert reader.loaded_types == ["anchors"]

    def test_evict_then_reload_counts_a_second_load(self, sharded_model_path,
                                                    query_batch):
        reader = ShardedModelReader(sharded_model_path)
        reader.predict("points", query_batch[:3])
        reader.evict("points")
        reader.predict("points", query_batch[:3])
        assert reader.accounting()["shard_loads"] == {"points": 2}

    def test_to_model_loads_everything(self, sharded_model_path,
                                       runtime_artifact):
        model = ShardedModelReader(sharded_model_path).to_model()
        assert isinstance(model, RHCHMEModel)
        np.testing.assert_array_equal(model.association,
                                      runtime_artifact.association)

    def test_validation_matches_eager_model(self, sharded_model_path):
        reader = ShardedModelReader(sharded_model_path)
        with pytest.raises(ValidationError, match="unknown object type"):
            reader.predict("nope", np.ones((2, 6)))
        with pytest.raises(ValidationError, match="features"):
            reader.predict("points", np.ones((2, 2)))
        # neither failed request should have touched the disk
        assert reader.accounting()["loaded_types"] == []


class TestPredictorIntegration:
    def test_lazy_predictor_serves_sharded_artifact(self, sharded_model_path,
                                                    runtime_artifact,
                                                    query_batch):
        predictor = BatchPredictor()
        prediction = predictor.predict(path=sharded_model_path,
                                       type_name="points", X_new=query_batch)
        direct = runtime_artifact.predict("points", query_batch)
        np.testing.assert_array_equal(prediction.labels, direct.labels)
        model = predictor.get_model(sharded_model_path)
        assert isinstance(model, ShardedModelReader)
        assert model.accounting()["loaded_types"] == ["points"]

    @pytest.mark.parametrize("layout", SHARD_LAYOUTS)
    def test_predictor_matches_model_predict(self, layout, runtime_artifact,
                                             query_batch, tmp_path):
        path = runtime_artifact.save(tmp_path / "model.npz", shards=layout)
        # Diagnostics on: the drift detector is built from whatever the
        # predictor opened, a lazy reader included.
        predictor = BatchPredictor(diagnostics=True)
        for type_name in runtime_artifact.type_names:
            queries = (query_batch if type_name == "points"
                       else runtime_artifact.features[type_name][:16] + 0.01)
            served = predictor.predict(path=path, type_name=type_name,
                                       X_new=queries)
            direct = runtime_artifact.predict(type_name, queries)
            np.testing.assert_array_equal(served.labels, direct.labels)
            np.testing.assert_array_equal(served.membership,
                                          direct.membership)
        model = predictor.get_model(path)
        expected = (RHCHMEModel if layout == "monolithic"
                    else ShardedModelReader)
        assert isinstance(model, expected)
        assert predictor.drift_snapshot()
