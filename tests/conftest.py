"""Shared fixtures."""

from collections import Counter

import pytest

import seampde.analysis as analysis
import seampde.hifi as hifi


class ProductCounts:
    """Calls of hifi.product, keyed by the matrix they receive. Each matrix
    is kept, so that no later matrix takes over its id and its count."""

    def __init__(self):
        self.counts = Counter()
        self.matrices = {}

    def add(self, matrix):
        self.matrices[id(matrix)] = matrix
        self.counts[id(matrix)] += 1

    def __getitem__(self, matrix):
        return self.counts[id(matrix)]


@pytest.fixture
def products(monkeypatch):
    """Counts every operator-times-vector product: hifi.product is replaced,
    in hifi (CG, step_blocks) and in analysis (operator_norm), by a wrapper
    that counts each call against the identity of its matrix."""
    counts = ProductCounts()
    product = hifi.product

    def counting(matrix, x):
        counts.add(matrix)
        return product(matrix, x)

    monkeypatch.setattr(hifi, "product", counting)
    monkeypatch.setattr(analysis, "product", counting)
    return counts
