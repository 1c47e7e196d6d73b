"""Layer-wise auto-weighted test-time adaptation.

Per-layer traces of the score second-moment matrix, accumulated across
an online stream of corrupted batches, drive bounded per-layer learning
rates for entropy-based self-adaptation of a frozen-source classifier.
"""
