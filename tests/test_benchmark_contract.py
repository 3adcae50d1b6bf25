"""The package surface the benchmark's tracer relies on.

`perfbench/spans.py` wraps the functions it lists in `WRAPPED` by name,
so a rename or deletion in the package would make `perfbench/run.py
--trace 1` fail. This loads that file by path and checks each name.
"""

import importlib.util
import pathlib

import numpy as np

from chunkmel import decoder

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_the_package():
    spans = load_spans()
    missing = [
        f"{mod.__name__}.{name}"
        for mod, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(mod, name, None))
    ]
    assert missing == []


def test_tracer_sees_the_block_body_of_a_chunk():
    spans = load_spans()
    cfg = decoder.DecoderConfig(n_layers=3, d_model=8, d_ff=12, chunk_size=4, past_size=3, mel_bins=5)
    model = decoder.init_weights(cfg, seed=0)
    chunk = np.random.default_rng(1).standard_normal((4, cfg.d_model))
    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.open("stream.chunk")
        decoder.decode_chunk(chunk, model, decoder.init_state(cfg))
        tracer.close(root)
    finally:
        tracer.uninstall()
    seen = [tracer.names[i] for i in tracer.name]
    for name in ("fft_block_step", "mha_chunk_step", "ffn_chunk_step"):
        assert seen.count(f"decoder.{name}") == cfg.n_layers
