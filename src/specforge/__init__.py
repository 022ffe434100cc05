"""specforge: synthesize and analyze ACSL annotations for C programs.

The pipeline builds LLM prompts from a C program plus optional symbolic
context (structural test cases, value-analysis reports), collects sampled
completions through a replayable gateway, then extracts, classifies, counts,
lints, and robustness-tests the resulting annotations.
"""

__version__ = "0.1.0"
