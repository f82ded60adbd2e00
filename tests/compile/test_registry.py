"""The kernel-frontend registry and the byte-stability contract.

``TestPinnedHashes`` is the acceptance gate of the dataflow-frontend
refactor: FFT and JPEG re-expressed through :class:`DataflowGraph` must
produce byte-for-byte the artifact hashes the hand lowerings produced,
so every warm :class:`~repro.compile.cache.ArtifactCache` entry (memory
and disk tier alike) stays valid.  The hex strings below were captured
from the pre-refactor lowerings; changing any of them invalidates every
deployed cache and MUST NOT happen silently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import clear_cache
from repro.compile.frontends import (
    compile_fft,
    compile_jpeg,
    compile_kernel,
    frontend_names,
    frontend_summaries,
    get_frontend,
    kernel_suggestions,
)
from repro.errors import CompileError
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.jpeg.encoder import blocks_of

#: (kind, params) -> pre-refactor artifact hash.  Captured from the
#: hand lowerings at the commit introducing the dataflow frontend.
PINNED_HASHES = {
    ("fft", (("cols", 2), ("link_cost_ns", 100.0), ("m", 8), ("n", 64))):
        "4e62172f921d3cd1b1af81890c952c1d5aa96d1f8214828a1825f82038c8e1a1",
    ("fft", (("cols", 2), ("link_cost_ns", 0.0), ("m", 8), ("n", 64))):
        "7e8b1e87fec945ccc549a92c68a2449ebf29a9c9c63cf1879bae061f5f6d8fbb",
    ("fft", (("cols", 1), ("link_cost_ns", 100.0), ("m", 16), ("n", 16))):
        "958ab87a5dae5ebc4eaafac646f371729a2843249e23227f76f23327ad0c11b9",
    ("fft", (("cols", 4), ("link_cost_ns", 100.0), ("m", 16), ("n", 256))):
        "aeb0c699d1223c958bc215828f6f3aa78aad01d022ecd585fc7df9b787f4cb88",
    ("jpeg", (("chroma", False), ("quality", 75))):
        "4df4e16cf3633bd1c4b8d6557e2e410f2e5c947199abb3327ed80ff63caf0b2a",
    ("jpeg", (("chroma", True), ("quality", 90))):
        "95e786f8db2c7bb7809f6ad437cf94325421d5dd11bb4934d9b969a0f39811b9",
    ("jpeg", (("chroma", False), ("quality", 50))):
        "6b46023ea2a1ade01bb5f2983cf113c942091005ded8598e960cdc5ed06a67c3",
}


class TestPinnedHashes:
    @pytest.mark.parametrize(
        "kind,params,want",
        [(k, dict(p), h) for (k, p), h in PINNED_HASHES.items()],
    )
    def test_graph_lowering_is_byte_stable(self, kind, params, want):
        assert compile_kernel(kind, params).artifact_hash == want

    def test_typed_conveniences_hit_the_same_cache_entries(self):
        clear_cache()
        a = compile_fft(FFTPlan(64, 8, 2), link_cost_ns=100.0)
        b = compile_kernel(
            "fft", {"n": 64, "m": 8, "cols": 2, "link_cost_ns": 100.0}
        )
        assert a is b
        c = compile_jpeg(75, False)
        d = compile_kernel("jpeg", {"quality": 75, "chroma": False})
        assert c is d


class TestRegistry:
    def test_all_five_builtins_register(self):
        assert frontend_names() == ("conv2d", "dsp", "fft", "gemm", "jpeg")

    def test_summaries_cover_every_kind(self):
        summaries = frontend_summaries()
        assert sorted(summaries) == sorted(frontend_names())
        assert all(summaries.values())

    def test_unknown_kind_is_a_typed_frontend_error(self):
        with pytest.raises(CompileError) as excinfo:
            get_frontend("fft2d")
        assert excinfo.value.pass_name == "frontend"
        assert "did you mean" in str(excinfo.value)

    def test_kernel_suggestions_catch_typos(self):
        assert "gemm" in kernel_suggestions("gem")
        assert "conv2d" in kernel_suggestions("conv")
        assert kernel_suggestions("zzzzzz") == []

    @pytest.mark.parametrize("kind", ["conv2d", "gemm", "dsp", "fft", "jpeg"])
    def test_oracle_contract_is_complete(self, kind):
        frontend = get_frontend(kind)
        assert frontend.example_payload is not None
        assert frontend.reference is not None
        assert frontend.description

    def test_canonicalize_coerces_by_default_type(self):
        frontend = get_frontend("fft")
        canonical = frontend.canonicalize({"n": 16.0, "link_cost_ns": 0})
        assert canonical == {
            "n": 16, "m": 8, "cols": 2, "link_cost_ns": 0.0
        }
        assert isinstance(canonical["n"], int)
        assert isinstance(canonical["link_cost_ns"], float)

    def test_canonicalize_rejects_unknown_parameters(self):
        with pytest.raises(CompileError, match="no parameter 'radix'"):
            get_frontend("fft").canonicalize({"radix": 4})

    def test_spellings_share_one_cache_entry(self):
        clear_cache()
        a = compile_kernel("gemm", {"n": 8, "block": 4})
        b = compile_kernel("gemm", {"n": 8.0, "block": 4.0})
        c = compile_kernel("gemm")
        assert a is b is c

    def test_spec_round_trip(self):
        for kind in frontend_names():
            frontend = get_frontend(kind)
            spec_params = frontend.spec_params(None)
            assert len(spec_params) == len(frontend.param_names)
            back = frontend.params_from_spec(spec_params)
            assert back == frontend.canonicalize(None)

    def test_params_from_spec_checks_arity(self):
        with pytest.raises(CompileError, match="spec wants params"):
            get_frontend("gemm").params_from_spec((8,))


class TestExamplePayloads:
    """Every example payload passes its own kernel's input encoder."""

    @pytest.mark.parametrize("kind", ["conv2d", "gemm", "dsp", "fft", "jpeg"])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_example_payload_encodes(self, kind, seed):
        frontend = get_frontend(kind)
        params = frontend.canonicalize(None)
        port = compile_kernel(kind, params).plan.input_port
        payload = frontend.example_payload(params, np.random.default_rng(seed))
        if kind == "jpeg":
            # The JPEG session feeds its port one 8x8 block at a time.
            blocks, rows, cols = blocks_of(payload)
            inputs = [blocks[r, c] for r in range(rows) for c in range(cols)]
        else:
            inputs = [payload]
        for value in inputs:
            port.encoder(value)  # raises KernelError when out of range

    def test_fft_gaussian_outliers_are_clipped(self):
        # Seed 902 drew a payload past the Q30 headroom before clipping.
        frontend = get_frontend("fft")
        params = frontend.canonicalize(None)
        port = compile_kernel("fft", params).plan.input_port
        payload = frontend.example_payload(params, np.random.default_rng(902))
        port.encoder(payload)
