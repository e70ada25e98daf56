"""The flat contrastive loss against a copy of the per-batch, per-positive
loss it replaced, and its tape size."""

import numpy as np
import pytest

from mecole import autodiff as ad
from mecole.contrastive import ContrastiveBatch, contrastive_loss
from mecole.decoupling import DecoupledEmbeddings


def per_batch_loss(batches, E, tau, include_positive_in_denominator=False):
    """The earlier `contrastive_loss`: one tape node per positive."""
    total = None
    count = 0
    for b in batches:
        f_v = ad.take_rows(E.H_d, [b.anchor])
        neg = ad.take_rows(E.H_d, b.negatives)
        s_neg = ad.div(ad.tsum(ad.mul(neg, f_v), axis=1), tau)
        denom = ad.tsum(ad.exp(s_neg))
        pos = ad.take_rows(E.H_d, b.positives)
        s_pos = ad.div(ad.tsum(ad.mul(pos, f_v), axis=1), tau)
        if include_positive_in_denominator:
            for j in range(len(b.positives)):
                s_j = ad.take_rows(s_pos, [j])
                term = ad.sub(ad.log(ad.add(denom, ad.exp(s_j))), s_j)
                total = term if total is None else ad.add(total, term)
                count += 1
        else:
            log_denom = ad.log(denom)
            for j in range(len(b.positives)):
                term = ad.sub(log_denom, ad.take_rows(s_pos, [j]))
                total = term if total is None else ad.add(total, term)
                count += 1
    return ad.div(total, float(count))


def make_batch(anchor, positives, negatives):
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    return ContrastiveBatch(
        anchor=int(anchor), positives=positives,
        pos_p=np.full(positives.size, 1.0 / positives.size),
        negatives=negatives,
        neg_p=np.full(negatives.size, 1.0 / negatives.size))


def random_case(rng):
    """Random embeddings and 1-6 batches: 1-3 positives, 1-25 negatives
    drawn with replacement, the anchor sometimes among its own nodes."""
    n = int(rng.integers(4, 40))
    hd = rng.normal(size=(n, int(rng.integers(1, 7)))) * rng.uniform(0.1, 2)
    batches = []
    for _ in range(int(rng.integers(1, 7))):
        v = int(rng.integers(n))
        pos = rng.integers(n, size=int(rng.integers(1, 4)))
        neg = rng.integers(n, size=int(rng.integers(1, 26)))
        if rng.random() < 0.3:
            neg[rng.integers(neg.size)] = v
        if rng.random() < 0.3:
            pos[rng.integers(pos.size)] = v
        batches.append(make_batch(v, pos, neg))
    return hd, batches, float(rng.uniform(0.1, 2.0))


def value_and_grad(loss_fn, hd, batches, tau, standard):
    E = DecoupledEmbeddings.from_arrays(hd, np.zeros((hd.shape[0], 1)),
                                        requires_grad=True)
    loss = loss_fn(batches, E, tau, include_positive_in_denominator=standard)
    loss.backward()
    return loss.item(), E.H_d.grad


@pytest.mark.parametrize("standard", [False, True])
def test_flat_loss_matches_per_batch_loss(standard):
    rng = np.random.default_rng(11 if standard else 12)
    self_hits = 0
    for _ in range(150):
        hd, batches, tau = random_case(rng)
        self_hits += any(b.anchor in b.negatives or b.anchor in b.positives
                         for b in batches)
        ref, ref_grad = value_and_grad(per_batch_loss, hd, batches, tau,
                                       standard)
        got, grad = value_and_grad(contrastive_loss, hd, batches, tau,
                                   standard)
        # a positive that is also the only negative gives exactly 0
        assert abs(got - ref) <= 1e-12 * (abs(ref) or 1.0)
        gscale = np.abs(ref_grad).max()
        assert np.abs(grad - ref_grad).max() <= 1e-12 * gscale
    assert self_hits >= 30


def count_tensors(monkeypatch, fn):
    calls = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    fn()
    monkeypatch.setattr(ad.Tensor, "__init__", init)
    return len(calls)


@pytest.mark.parametrize("standard", [False, True])
def test_tape_size_does_not_grow_with_batches(monkeypatch, standard):
    rng = np.random.default_rng(3)
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(60, 4)),
                                        np.zeros((60, 1)),
                                        requires_grad=True)
    all_batches = [make_batch(rng.integers(60),
                              rng.integers(60, size=rng.integers(1, 4)),
                              rng.integers(60, size=20))
                   for _ in range(50)]
    sizes = [count_tensors(monkeypatch, lambda: contrastive_loss(
        all_batches[:k], E, 0.5, include_positive_in_denominator=standard))
        for k in (1, 50)]
    assert sizes[0] == sizes[1] == (20 if standard else 18)
