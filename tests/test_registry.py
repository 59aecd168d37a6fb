"""Unit tests for the compressor registry and public API."""

import numpy as np
import pytest

from conftest import assert_error_bounded, smooth_field
from repro import available, compress, decompress, get_compressor
from repro.common.errors import ConfigError
from repro.registry import Compressor, register


class TestRegistry:
    def test_all_paper_codecs_registered(self):
        names = available()
        for expected in ("cuszi", "cusz", "cuszp", "cuszx", "fzgpu",
                         "cuzfp", "sz3", "qoz"):
            assert expected in names

    def test_get_unknown(self):
        with pytest.raises(ConfigError):
            get_compressor("magic")

    def test_instances_satisfy_protocol(self):
        for name in available():
            assert isinstance(get_compressor(name), Compressor)

    def test_double_registration_rejected(self):
        class Fake:
            name = "cuszi"
        with pytest.raises(ConfigError):
            register(Fake)

    def test_register_requires_name(self):
        class Nameless:
            pass
        with pytest.raises(ConfigError):
            register(Nameless)


class TestPublicAPI:
    def test_compress_decompress_default(self):
        data = smooth_field((24, 24, 24), seed=50)
        rng = float(data.max() - data.min())
        blob = compress(data, eb=1e-3, mode="rel")
        out = decompress(blob)
        assert_error_bounded(data, out, 1e-3 * rng)

    @pytest.mark.parametrize("codec", ["cusz", "fzgpu", "sz3"])
    def test_decompress_routes_by_header(self, codec):
        data = smooth_field((20, 20, 20), seed=51)
        rng = float(data.max() - data.min())
        blob = compress(data, codec=codec, eb=1e-2, mode="rel")
        out = decompress(blob)
        assert_error_bounded(data, out, 1e-2 * rng)

    def test_decompress_cuzfp_blob(self):
        data = smooth_field((20, 20, 20), seed=52)
        blob = compress(data, codec="cuzfp", rate=8.0)
        out = decompress(blob)
        assert out.shape == data.shape

    def test_decompress_garbage(self):
        with pytest.raises(Exception):
            decompress(b"RPW1\x03gle but not really")

    @pytest.mark.parametrize("codec", ["cuszi", "cusz", "sz3", "cuzfp"])
    def test_decompress_opens_blob_once(self, codec, monkeypatch):
        # routing needs the codec name from inside the lossless frame; the
        # codec must decode the opened blob, not unwrap and parse again
        import repro.common.lossless_wrap as lwrap
        import repro.core.pipeline as pipe
        calls = {"unwrap": 0, "parse": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (lwrap, pipe):
            monkeypatch.setattr(mod, "unwrap_lossless",
                                counting(mod.unwrap_lossless, "unwrap"))
            monkeypatch.setattr(mod, "parse_container",
                                counting(mod.parse_container, "parse"))
        data = smooth_field((12, 12, 12), seed=54)
        kwargs = {"rate": 8.0} if codec == "cuzfp" else {"eb": 1e-2}
        blob = compress(data, codec=codec, **kwargs)
        decompress(blob)
        assert calls == {"unwrap": 1, "parse": 1}

    def test_kwargs_forwarded(self):
        data = smooth_field((24, 24, 24), seed=53)
        small = compress(data, codec="cuszi", eb=1e-1, mode="rel")
        large = compress(data, codec="cuszi", eb=1e-5, mode="rel")
        assert len(small) < len(large)
