"""In-memory tracing of mecole's layers, installed from outside the package.

`Tracer.install` replaces public functions at the names mecole calls them
through (module attributes such as `mecole.decoupling.rewire`, the names
bound in `mecole.training` and `mecole.cli`, and methods such as
`Graph.__init__` and `Tensor.backward`) with wrappers that record a span
(name, start, end, parent) and count work. `uninstall` puts the originals
back. Some wrappers also check a property of what crossed the boundary;
that checking runs on an "untimed" clock that is subtracted from every
span and gap, so it does not show up as layer time.
"""

from __future__ import annotations

import inspect
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import checks

# per-layer metric -> (span name, "total" or "self"); counts come from
# Tracer.counts under their metric name
TIMES = {
    "graphs.generate_s": ("graphs.generate", "total"),
    "graphs.load_s": ("graphs.load", "total"),
    "graphs.knn_s": ("graphs.knn", "total"),
    "graphs.graph_build_s": ("graphs.graph_build", "self"),
    "decoupling.rewire_s": ("decoupling.rewire", "self"),
    "decoupling.non_edge_s": ("decoupling.non_edge", "total"),
    "decoupling.recon_s": ("decoupling.recon", "self"),
    "decoupling.encode_s": ("decoupling.encode", "total"),
    "decoupling.disc_s": ("decoupling.disc", "total"),
    "contrastive.negative_s": ("contrastive.negative", "total"),
    "contrastive.virtual_s": ("contrastive.virtual", "total"),
    "contrastive.anchor_s": ("contrastive.anchor", "total"),
    "contrastive.positive_s": ("contrastive.positive", "total"),
    "contrastive.loss_s": ("contrastive.loss", "total"),
    "autodiff.backward_s": ("autodiff.backward", "total"),
    "autodiff.adam_s": ("autodiff.adam", "total"),
    "autodiff.normalize_s": ("autodiff.normalize", "total"),
    "clustering.init_s": ("clustering.init", "total"),
    "clustering.init_self_s": ("clustering.init", "self"),
    "clustering.update_s": ("clustering.update", "total"),
    "clustering.modularity_s": ("clustering.modularity", "total"),
    "training.run_s": ("training.run", "total"),
    "training.self_s": ("training.run", "self"),
    "metrics.eval_s": ("metrics.eval", "total"),
    "cli.write_s": ("cli.write", "total"),
}
COUNTS = (
    "decoupling.non_edges",
    "contrastive.negative_calls", "contrastive.negatives",
    "contrastive.negative_misses", "contrastive.virtual_nodes",
    "contrastive.anchors", "contrastive.batches",
    "autodiff.backward_calls", "autodiff.tensors", "clustering.updates",
    "training.epochs",
)
MAX_VIOLATIONS = 20


class Tracer:
    def __init__(self):
        # span: [id, name, start, end, parent id, untimed at start, at end,
        #        opened inside run_training]
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.violations = []
        self.violation_count = 0
        self._stack = []
        self._training = 0  # run_training spans open
        self._untimed = 0.0  # property checks and speed probes
        self.check_s = 0.0  # property checks alone
        self._restore = []
        self._t0 = perf_counter()

    # recording ------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), name, perf_counter(), None, parent,
               self._untimed, None, self._training > 0]
        if name == "training.run":
            self._training += 1
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        rec[6] = self._untimed
        if rec[1] == "training.run":
            self._training -= 1
        self._stack.pop()

    @contextmanager
    def untimed(self):
        t = perf_counter()
        try:
            yield
        finally:
            self._untimed += perf_counter() - t

    def violate(self, errors):
        self.violation_count += len(errors)
        room = MAX_VIOLATIONS - len(self.violations)
        self.violations.extend(errors[:max(room, 0)])

    # patching -------------------------------------------------------
    def _wrap(self, owner, attr, name, after=None, count=None, miss=None):
        """Replace owner.attr by a spanned call. `after(bound_args, out)`
        runs untimed; `count` is bumped per call, `miss` per raise."""
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if after is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            rec = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            except Exception:
                if miss:
                    tracer.counts[miss] += 1
                raise
            finally:
                tracer._close(rec)
            if after is not None:
                t = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, out)
                spent = perf_counter() - t
                tracer._untimed += spent
                tracer.check_s += spent
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _count_calls(self, owner, attr, count):
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self):
        import mecole.autodiff as ad
        import mecole.cli as cli
        import mecole.contrastive as ct
        import mecole.decoupling as dc
        import mecole.graphs as graphs
        import mecole.training as tr

        w = self._wrap
        w(graphs, "generate_sbm", "graphs.generate")
        w(tr, "load_dataset", "graphs.load")
        w(tr, "build_knn_similarity_graph", "graphs.knn")
        w(graphs.Graph, "__init__", "graphs.graph_build")

        w(dc, "rewire", "decoupling.rewire", after=self._after_rewire)
        w(dc, "sample_non_edges", "decoupling.non_edge",
          after=self._after_non_edges)
        w(dc, "reconstruction_loss", "decoupling.recon")
        w(dc.DecoupledEncoder, "encode", "decoupling.encode",
          count="training.epochs")
        w(dc, "discrepancy_loss", "decoupling.disc")

        w(ct, "sample_negatives", "contrastive.negative",
          after=self._after_negatives, count="contrastive.negative_calls",
          miss="contrastive.negative_misses")
        w(ct, "synthesize_virtual_node", "contrastive.virtual",
          after=self._after_virtual)
        w(ct, "sample_anchors", "contrastive.anchor",
          after=self._after_anchors)
        w(ct, "sample_positives", "contrastive.positive")
        w(ct, "contrastive_loss", "contrastive.loss",
          after=self._after_loss)

        w(ad.Tensor, "backward", "autodiff.backward",
          count="autodiff.backward_calls")
        w(ad.Adam, "step", "autodiff.adam")
        w(ad, "normalize_adjacency", "autodiff.normalize")
        self._count_calls(ad.Tensor, "__init__", "autodiff.tensors")

        w(tr, "init_assignments", "clustering.init")
        w(tr, "update_assignments", "clustering.update",
          count="clustering.updates")
        w(tr, "modularity", "clustering.modularity")

        w(tr, "run_training", "training.run")
        w(tr, "clustering_accuracy", "metrics.eval")
        w(tr, "nmi", "metrics.eval")
        w(cli, "write_report", "cli.write")
        w(cli, "write_grid_csv", "cli.write")

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # layer-boundary property checks ---------------------------------
    def _after_rewire(self, a, out):
        self.violate(checks.check_rewired_weights(out.adjacency.data,
                                                  a["eta"]))

    def _after_non_edges(self, a, out):
        self.counts["decoupling.non_edges"] += len(out)
        graph = a["graph"]
        coo = graph.adjacency.tocoo()
        errors = checks.check_non_edges(out, graph.n, coo.row, coo.col)
        if len(out) != a["count"]:
            errors.append(f"asked for {a['count']} non-edges, "
                          f"got {len(out)}")
        self.violate(errors)

    def _after_negatives(self, a, out):
        nodes, _ = out
        self.counts["contrastive.negatives"] += len(nodes)
        anchor = a["virt"].anchor
        self.violate(checks.check_negatives(
            nodes, anchor, a["graph"].neighbors(anchor)))

    def _after_virtual(self, a, virt):
        self.counts["contrastive.virtual_nodes"] += 1
        E = a["E"]
        self.violate(checks.check_virtual_node(
            virt.h_d, virt.h_o, virt.mask, a["v"], virt.donor, E.hd, E.ho,
            a["assignment"].hard))

    def _after_anchors(self, a, out):
        self.counts["contrastive.anchors"] += len(out)

    def _after_loss(self, a, out):
        self.counts["contrastive.batches"] += len(a["batches"])

    # results --------------------------------------------------------
    def _durations(self):
        return [(r[3] - r[2]) - (r[6] - r[5]) for r in self.spans]

    def per_layer(self):
        """Every per-layer metric: summed span times, self times, counts
        and the median epoch gap."""
        dur = self._durations()
        child = defaultdict(float)
        for rec, d in zip(self.spans, dur):
            if rec[4] is not None:
                child[rec[4]] += d
        total = defaultdict(float)
        own = defaultdict(float)
        builds = 0
        for rec, d in zip(self.spans, dur):
            name = rec[1]
            if name == "graphs.graph_build":
                # only the graphs training builds, not those of set-up
                if not rec[7]:
                    continue
                builds += 1
            total[name] += d
            own[name] += d - child[rec[0]]
        out = {}
        for metric, (span, kind) in TIMES.items():
            out[metric] = (total if kind == "total" else own)[span]
        out["training.epoch_s"] = self._epoch_gap()
        out["graphs.graph_builds"] = builds
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def _epoch_gap(self):
        """Median gap between successive encode calls of one training."""
        last = {}
        gaps = []
        for rec in self.spans:
            if rec[1] != "decoupling.encode":
                continue
            prev = last.get(rec[4])
            if prev is not None:
                gaps.append((rec[2] - prev[2]) - (rec[5] - prev[5]))
            last[rec[4]] = rec
        return statistics.median(gaps) if gaps else 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec, d in zip(self.spans, self._durations()):
                fh.write(json.dumps({
                    "id": rec[0], "name": rec[1],
                    "start": rec[2] - self._t0, "end": rec[3] - self._t0,
                    "parent": rec[4], "untimed": rec[6] - rec[5],
                    "duration": d}) + "\n")
