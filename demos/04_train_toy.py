"""End to end: train the toy preset on the synthetic stripe task.

Builds the dataset, runs plain SGD through the full backbone (tokenizer,
two gated scan blocks, pooled head), prints the loss curve, and saves a
weight file that `plainscan infer` can load.  Run with:

    python3 demos/04_train_toy.py

Takes a few seconds on a laptop CPU.
"""

import numpy as np

from plainscan import get_config
from plainscan.data import make_stripes
from plainscan.netpbm import save_ppm
from plainscan.train import toy_train
from plainscan.weights import save_weights

STEPS = 60

cfg = get_config("toy")
dataset = make_stripes(n=64, seed=0)
print("task: horizontal stripes (class 0) vs vertical stripes (class 1)")
print(f"dataset: {len(dataset.labels)} images of {dataset.images.shape[1]}x"
      f"{dataset.images.shape[2]}, toy preset ({cfg.depth} blocks, width {cfg.d_model})\n")

acc, curve, model = toy_train(cfg, dataset, steps=STEPS, lr=0.05, seed=0)

print("loss curve (every 5 steps):")
for step, loss in curve[::5]:
    bar = "#" * int(min(loss, 1.0) * 50)
    print(f"  step {step:>3}  loss {loss:.4f}  {bar}")
print(f"\nfinal train accuracy: {acc:.1%}")

save_weights(model.params, "toy_trained.pmwb")
save_ppm("stripe_sample.ppm", np.clip(dataset.images[0], 0.0, 1.0))
print("wrote toy_trained.pmwb and stripe_sample.ppm — classify the sample with:")
print("  plainscan infer --config toy --weights toy_trained.pmwb --image stripe_sample.ppm")
