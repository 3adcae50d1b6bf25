"""Train the toy lag-mixing task for a short burst and watch the match
between training mask and inference mask show up as held-out error.

A full study (2000 steps, several seeds) takes minutes; this keeps the
shape of the experiment at a fraction of the cost.
"""

import numpy as np

from chunkmel import (
    ALL,
    DecoderConfig,
    TrainConfig,
    build_static_mask,
    decode_parallel_masked,
    generate_batch,
    make_task,
    msd,
    train,
)


def main() -> None:
    # static training uses the decoder config's chunk (30) and past sizes
    dec_cfg = DecoderConfig(past_size=5)
    tc = TrainConfig(steps=150, seed=0, frames=96, regime="static")
    res = train(dec_cfg, tc)
    print(f"trained {tc.steps} steps on chunk 30 / past 5")
    print(f"loss: {res.initial_loss:.4f} -> {res.final_loss:.4f}")
    for entry in res.log[:: max(1, tc.steps // 5)]:
        print(f"  step {entry['step']:>4}  loss {entry['loss']:.4f}  "
              f"grad norm {entry['grad_norm']:.2f}")

    # Held-out frames, decoded under several inference masks. The model
    # never saw keys beyond 5 past frames; granting more should not help.
    task = make_task(dec_cfg.d_model, dec_cfg.mel_bins, seed=123)
    feats, targets = generate_batch(task, t=96, batch=4,
                                    rng=np.random.default_rng(99))
    print("held-out frame-mean distance by inference past size:")
    for past in (0, 5, 15, 30, 90, ALL):
        mask = build_static_mask(96, 30, past)
        errs = [msd(decode_parallel_masked(f, res.model, mask), t)
                for f, t in zip(feats, targets)]
        print(f"  past {str(past):>4}: {np.mean(errs):.4f}")


if __name__ == "__main__":
    main()
