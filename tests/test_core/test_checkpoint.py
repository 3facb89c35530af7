"""Checkpointing: resume must be bit-exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    VQMC,
    CheckpointCallback,
    CheckpointCorruptError,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.models import MADE, RBM
from repro.optim import Adam
from repro.samplers import AutoregressiveSampler


def make_vqmc(small_tim, seed=7, model_seed=3):
    model = MADE(6, hidden=8, rng=np.random.default_rng(model_seed))
    return VQMC(
        model, small_tim, AutoregressiveSampler(),
        Adam(model.parameters(), lr=0.01), seed=seed,
    )


class TestSaveLoad:
    def test_resume_is_bit_exact(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_vqmc(small_tim)
        a.run(5, batch_size=32)
        save_checkpoint(a, path)
        a.run(5, batch_size=32)
        reference = a.model.flat_parameters()

        b = make_vqmc(small_tim, seed=999, model_seed=999)  # wrong init on purpose
        load_checkpoint(b, path)
        assert b.global_step == 5
        b.run(5, batch_size=32)
        assert np.array_equal(b.model.flat_parameters(), reference)

    def test_rng_state_restored(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_vqmc(small_tim)
        a.run(3, batch_size=16)
        save_checkpoint(a, path)
        draws_a = a.rng.random(5)

        b = make_vqmc(small_tim, seed=123)
        load_checkpoint(b, path)
        assert np.array_equal(b.rng.random(5), draws_a)

    def test_wrong_model_class_rejected(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_vqmc(small_tim)
        save_checkpoint(a, path)
        rbm = RBM(6, rng=np.random.default_rng(0))
        from repro.samplers import MetropolisSampler

        b = VQMC(rbm, small_tim, MetropolisSampler(), Adam(rbm.parameters()))
        with pytest.raises(TypeError):
            load_checkpoint(b, path)

    def test_a_v2_checkpoint_of_dense_weights_is_refused(self, small_tim, tmp_path):
        """Format v2 held every MADE weight as its dense matrix, and Adam's
        moments alike. It verifies, but loading it raises a typed error and
        leaves the trainer as it was."""
        import io
        import pickle

        from repro.core import checkpoint

        a = make_vqmc(small_tim)
        a.run(2, batch_size=16)
        params, m, v = {}, [], []
        opt = a.optimizer.state_dict()
        for layer, name in zip(a.model.fc_layers, ("fc1", "fc2")):
            live = layer.pattern
            for key, packed in (("weight", layer.weight.data), ("bias", layer.bias.data)):
                pm, pv = opt["m"][len(m)], opt["v"][len(v)]
                if key == "weight":
                    packed, pm, pv = (self._dense(x, live) for x in (packed, pm, pv))
                params[f"{name}.{key}"] = packed
                m.append(pm)
                v.append(pv)
        header = {
            "version": 2, "global_step": a.global_step,
            "optimizer_state": {**opt, "m": m, "v": v},
            "rng_state": a.rng.bit_generator.state, "model_class": "MADE",
        }
        buf = io.BytesIO()
        pickle.dump(header, buf)
        blob = buf.getvalue()
        path = tmp_path / "v2.npz"
        np.savez(
            path,
            __header__=np.frombuffer(blob, dtype=np.uint8),
            __crc32__=np.array([checkpoint._payload_crc(blob, params)], dtype=np.uint32),
            **{f"param/{k}": x for k, x in params.items()},
        )
        assert verify_checkpoint(path)["version"] == 2
        b = make_vqmc(small_tim)
        before = b.model.flat_parameters()
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(b, path)
        assert err.value.version == 2 and isinstance(err.value, ValueError)
        assert np.array_equal(b.model.flat_parameters(), before)
        assert b.global_step == 0

    @staticmethod
    def _dense(packed, live):
        dense = np.zeros(live.shape)
        dense[live] = packed
        return dense

    def test_optimizer_moments_roundtrip(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_vqmc(small_tim)
        a.run(4, batch_size=16)
        save_checkpoint(a, path)
        b = make_vqmc(small_tim)
        load_checkpoint(b, path)
        assert b.optimizer._t == a.optimizer._t
        for ma, mb in zip(a.optimizer._m, b.optimizer._m):
            assert np.array_equal(ma, mb)


class TestCallback:
    def test_writes_and_rotates(self, small_tim, tmp_path):
        vqmc = make_vqmc(small_tim)
        cb = CheckpointCallback(tmp_path / "ckpts", every=2, keep_last=2)
        vqmc.run(7, batch_size=16, callbacks=[cb])
        files = sorted((tmp_path / "ckpts").glob("*.npz"))
        assert len(files) == 2  # rotation keeps only the last two
        assert cb.latest() == files[-1]

    def test_latest_loadable(self, small_tim, tmp_path):
        vqmc = make_vqmc(small_tim)
        cb = CheckpointCallback(tmp_path / "c", every=3)
        vqmc.run(6, batch_size=16, callbacks=[cb])
        fresh = make_vqmc(small_tim, seed=0, model_seed=0)
        load_checkpoint(fresh, cb.latest())
        assert np.array_equal(
            fresh.model.flat_parameters(), vqmc.model.flat_parameters()
        )

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointCallback(tmp_path, every=0)


class TestCrashSafety:
    def test_truncated_file_raises_typed_error(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_vqmc(small_tim)
        save_checkpoint(a, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointCorruptError, match="unreadable container"):
            load_checkpoint(make_vqmc(small_tim), path)

    def test_bit_flip_fails_crc(self, small_tim, tmp_path):
        # flipping a payload byte leaves the zip parseable but breaks the
        # CRC32 — the typed error must name the mismatch, not fail mid-load
        path = tmp_path / "ckpt.npz"
        save_checkpoint(make_vqmc(small_tim), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            verify_checkpoint(path)

    def test_verify_returns_header(self, small_tim, tmp_path):
        path = tmp_path / "ckpt.npz"
        vqmc = make_vqmc(small_tim)
        vqmc.run(3, batch_size=16)
        save_checkpoint(vqmc, path)
        header = verify_checkpoint(path)
        assert header["global_step"] == 3
        assert header["model_class"] == "MADE"

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.ones(3))
        with pytest.raises(CheckpointCorruptError, match="missing header"):
            verify_checkpoint(path)

    def test_no_tmp_leftovers_after_save(self, small_tim, tmp_path):
        save_checkpoint(make_vqmc(small_tim), tmp_path / "ckpt.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_restore_falls_back_when_newest_is_corrupt(self, small_tim, tmp_path):
        vqmc = make_vqmc(small_tim)
        cb = CheckpointCallback(tmp_path, every=2, keep_last=5)
        vqmc.run(2, batch_size=16, callbacks=[cb])
        good_params = vqmc.model.flat_parameters().copy()
        vqmc.run(2, batch_size=16, callbacks=[cb])  # writes step-4 checkpoint

        newest = cb._path_for(4)
        newest.write_bytes(newest.read_bytes()[:100])  # simulated torn write
        assert cb.newest_verified_step() == 2

        fresh = make_vqmc(small_tim, seed=0, model_seed=0)
        used = cb.restore_latest(fresh)
        assert used == cb._path_for(2)
        assert fresh.global_step == 2
        assert np.array_equal(fresh.model.flat_parameters(), good_params)

    def test_restore_at_step_pins_the_checkpoint(self, small_tim, tmp_path):
        vqmc = make_vqmc(small_tim)
        cb = CheckpointCallback(tmp_path, every=1, keep_last=10)
        vqmc.run(3, batch_size=16, callbacks=[cb])
        fresh = make_vqmc(small_tim)
        assert cb.restore_latest(fresh, at_step=2) == cb._path_for(2)
        assert fresh.global_step == 2
        assert cb.restore_latest(fresh, at_step=99) is None

    def test_rank_suffixed_files_are_disjoint(self, small_tim, tmp_path):
        a = CheckpointCallback(tmp_path, every=1, rank=0)
        b = CheckpointCallback(tmp_path, every=1, rank=1)
        vqmc = make_vqmc(small_tim)
        a.write(vqmc, 1)
        b.write(vqmc, 1)
        b.write(vqmc, 2)
        assert a._path_for(1).name == "checkpoint_00000001.rank000.npz"
        # each rank's directory scan only sees its own files
        assert [s for s, _ in a.candidates()] == [1]
        assert [s for s, _ in b.candidates()] == [2, 1]
