"""Sampling-rate chain names for augmentation plans.

They live apart from `augment`, which imports them, so that the CLI can
offer them as `--mode` choices without loading the planner.
"""

CHAIN_KEEP16K = "keep16k"
CHAIN_DOWN8K = "down8k"
CHAIN_DOWN8K_UP16K = "down8k-up16k"
CHAINS = (CHAIN_KEEP16K, CHAIN_DOWN8K, CHAIN_DOWN8K_UP16K)
