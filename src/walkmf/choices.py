"""The values a command-line choice takes, and the default epsilon.

Each layer validates its arguments against these, and the parser offers
them as choices. This module imports nothing, so the parser is built
without loading a layer.
"""

START_MODES = ("stationary", "uniform", "fixed")  # sampling: where the walk starts
ZERO_POLICIES = ("floor", "truncate", "mask")  # targets: how log(0) is resolved
BIAS_MODES = ("zero", "log2t")  # targets: the softmax target's bias
DEFAULT_EPSILON = 1e-12  # targets: the floor for zero probabilities
SPLITS = ("symmetric", "left")  # factorization: how singular values are split
